// Advisory work-unit claims over a shared directory.
//
// Correctness never depends on a claim: units are idempotent (they publish
// content-addressed store entries via atomic rename, so two racers write
// identical bytes) and the coordinator recomputes anything missing inline.
// Claims exist purely to keep workers off each other's units, so the
// protocol can be simple and lock-free:
//
//   claim    `claims/<unit>.claim` created O_CREAT|O_EXCL — exactly one
//            creator wins. Content (`owner= pid=`) is diagnostic only.
//   beat     the owner touches the claim's mtime while working. A claim
//            whose mtime is older than `stale_seconds` is presumed dead
//            (worker SIGKILLed, machine gone).
//   steal    unlink the stale claim, then race a fresh O_CREAT|O_EXCL
//            create. A second stealer that read the old claim's age before
//            the first re-created it unlinks the fresh claim, so both may
//            own the unit: at worst computed twice, never wrong.
//   done     `done/<unit>.done` written atomically (temp + rename). Done
//            markers are the ONLY completion signal; claims are garbage
//            the moment the marker exists.
//   release  unlink the claim (after done-marking, or to give a failing
//            unit back to the pool).
//
// The worst race — a slow-but-alive owner is stolen from because its beat
// was late — wastes one duplicate simulation and nothing else.
#pragma once

#include <string>

namespace gpustl::distrib {

struct ClaimResult {
  bool claimed = false;  // this caller now owns the unit
  bool stole = false;    // ... by expiring another owner's stale claim
};

class ClaimBoard {
 public:
  /// `dir` is the distrib dir root (claims live in ClaimsDir(dir)).
  /// Claims older than `stale_seconds` are eligible for stealing.
  ClaimBoard(std::string dir, std::string owner, double stale_seconds);

  /// Tries to become `unit`'s owner. Never blocks.
  ClaimResult TryClaim(const std::string& unit);

  /// Refreshes the claim's mtime. No-op if the claim vanished (stolen).
  void Heartbeat(const std::string& unit);

  /// Drops the claim so others can take the unit.
  void Release(const std::string& unit);

  /// Publishes the completion marker (atomic). Idempotent.
  void MarkDone(const std::string& unit);

  bool IsDone(const std::string& unit) const;

  /// True when a claim exists and its mtime is fresh. Used by Await loops
  /// to distinguish "someone is working" from "everyone is dead".
  bool HasLiveClaim(const std::string& unit) const;

  /// Test/chaos hook: rewinds the claim's mtime `seconds` into the past so
  /// the next TryClaim sees it stale.
  void Backdate(const std::string& unit, double seconds);

  const std::string& owner() const { return owner_; }
  double stale_seconds() const { return stale_seconds_; }

 private:
  std::string ClaimPath(const std::string& unit) const;
  std::string DonePath(const std::string& unit) const;

  std::string dir_;
  std::string owner_;
  double stale_seconds_;
};

}  // namespace gpustl::distrib
