// The work-stealing campaign worker: claim → simulate → publish → release.
//
// A worker is a separate PROCESS (gpustl-worker, or a child forked by the
// coordinator) pointed at a distrib dir. It loops over the posted units,
// claims one (claims.h), runs the unit's stage-2 logic trace and its
// full-fault-list dropped stuck-at simulation, and publishes the result —
// as a content-addressed GSRE entry in the shared result store (the only
// data that matters) plus a done marker in the distrib dir (the only
// completion signal). Everything a worker produces is store-keyed by
// content, so workers need no ordering, no rank, no channel to the
// coordinator, and any number of them (including zero) yields the same
// campaign report.
//
// Workers never see the fault-dropping state: every simulation runs the
// FULL fault list (skip = none, drop-within-run = on). The campaign
// replays the sequential cross-PTP drop order over these results
// (fault/replay.h), which is what makes the distributed report
// byte-identical to the single-process one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "compact/stl_campaign.h"
#include "distrib/units.h"
#include "netlist/netlist.h"
#include "store/result_store.h"

namespace gpustl::distrib {

/// The four campaign module netlists (fp32 optional) plus, optionally,
/// their pre-built fault data. Pointers are not owned and must outlive the
/// user. Null members are built on demand.
struct ModuleSet {
  const netlist::Netlist* du = nullptr;
  const netlist::Netlist* sp = nullptr;
  const netlist::Netlist* sfu = nullptr;
  const netlist::Netlist* fp32 = nullptr;  // optional
  const compact::ModulePrepSet* preps = nullptr;  // optional
};

struct WorkerOptions {
  std::string dir;  // distrib dir (required)

  /// Claim-file owner label; "" = "pid:<pid>".
  std::string owner;

  /// Result-store directory; "" = the `cache_dir` recorded in meta.txt by
  /// the coordinator (the normal case — workers and coordinator must share
  /// one store).
  std::string cache_dir;

  /// Fault-sim worker threads per unit (reports are bit-identical for any
  /// value). Forked fleets run at the campaign's own thread count.
  int threads = 1;

  /// Claim staleness horizon; <= 0 = the meta.txt value (default 30 s).
  double stale_seconds = 0.0;

  /// Idle poll interval while waiting for new units / campaign.done.
  int poll_ms = 50;

  /// Give up on a unit after this many local failures (it stays posted for
  /// other workers or the coordinator's inline fallback).
  int max_unit_attempts = 3;

  /// Pre-built netlists / fault prep to reuse instead of building them on
  /// first claim. Forked fleets point these at the coordinator's (the fork
  /// shares the parent's pages); external worker processes leave them null
  /// and build their own.
  ModuleSet modules;

  /// External stop flag (not owned; null = none). Set by signal handlers:
  /// the worker finishes its current unit, then exits cleanly.
  const std::atomic<bool>* stop = nullptr;
};

/// Executes work units: the unit's stage-2 logic trace followed by its
/// full-fault-list dropped stuck-at simulation, published to `store`.
/// Per-target netlists and fault prep are built lazily and cached across
/// units. This is the compute core shared by the local claim-loop worker
/// (RunWorker) and the TCP remote worker (net/remote_worker.h) — the
/// transports differ, the simulation must not.
class UnitRunner {
 public:
  struct Config {
    int threads = 1;
    ModuleSet modules;  // pre-built state to borrow; null members built
  };

  /// `store` must outlive the runner.
  UnitRunner(store::ResultStore& store, Config config);
  ~UnitRunner();

  UnitRunner(const UnitRunner&) = delete;
  UnitRunner& operator=(const UnitRunner&) = delete;

  /// Runs one unit and returns the store key its result lives under
  /// (already published to the store when this returns). Throws Error on
  /// an unknown target token.
  store::StoreKey Run(const WorkUnit& unit);

 private:
  struct State;
  store::ResultStore& store_;
  Config config_;
  std::unique_ptr<State> state_;
};

struct WorkerStats {
  std::uint64_t units_done = 0;
  std::uint64_t steals = 0;       // claims acquired by expiring a stale one
  std::uint64_t stale_left = 0;   // chaos: claims abandoned with old mtimes
  std::uint64_t failures = 0;     // unit attempts that threw
};

/// Runs the worker loop until campaign.done appears (CLI mode), the stop
/// flag is raised, or — in a forked fleet — the parent's marker logic ends
/// the run. Writes `stats/<owner>.txt` on exit and returns the totals.
/// Throws Error/IoError only for setup problems (missing dir, no store);
/// per-unit failures are counted and retried, never fatal.
WorkerStats RunWorker(const WorkerOptions& options);

}  // namespace gpustl::distrib
