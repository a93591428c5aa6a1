// WorkBroker: the distrib claim protocol served over RPC.
//
// A local `gpustl-worker --dir` coordinates through the shared
// filesystem (units/, claims/, done/ — src/distrib). A remote worker has
// no shared filesystem, so the daemon brokers the same protocol over its
// connection (TCP, or the daemon's unix socket):
//
//   fetch    scan units, TryClaim one, ship the unit file bytes (hex)
//   renew    Heartbeat the claim (touches mtime — the coordinator's
//            stale-claim stealing keeps working if the daemon dies)
//   publish  upload a GSRE store entry; validated and installed atomically
//   done     MarkDone + Release
//   release  give the unit back without a done marker
//
// renew and release act only on units this session leased: any other name
// (another worker's unit, a `../` path) gets `lease-lost`, no file op. done
// also takes a posted unit the session no longer holds (the worker
// reconnected after publishing): it writes the marker and nothing else.
//
// Leases mirror the file protocol's staleness rule on the server side:
// a unit fetched over RPC is released when the connection drops (session
// teardown) or when the worker stops renewing for `lease_seconds`
// (SweepExpired, driven by the connection's read-timeout slices). Either
// way the unit becomes claimable again immediately — a SIGKILLed remote
// worker's unit is re-issued exactly like a local worker's stale claim.
//
// Publishing bypasses ResultStore::Load/Store on purpose: the entry
// arrives as already-encoded GSRE bytes, so the broker validates them
// with ResultStore::CheckEntry (magic, current format version, key match,
// checksum, payload decode) and installs via unique-temp + rename. An
// existing file that is not a valid current-version entry is replaced; a
// valid one makes the publish an idempotent no-op. The shared store
// object's hit/miss stats stay untouched — a remote publish is not a
// local cache event.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "distrib/claims.h"
#include "service/json.h"

namespace gpustl::net {

struct BrokerOptions {
  std::string distrib_dir;
  std::string cache_dir;
  /// Claim staleness horizon — also the RPC lease duration.
  double lease_seconds = 30.0;
};

class WorkBroker;

/// One remote worker's connection state. NOT thread-safe: owned and
/// driven by a single connection thread. The destructor releases every
/// still-held lease.
class BrokerSession {
 public:
  BrokerSession(const WorkBroker& broker, std::string owner);
  ~BrokerSession();

  BrokerSession(const BrokerSession&) = delete;
  BrokerSession& operator=(const BrokerSession&) = delete;

  /// Dispatches one worker RPC (fetch/renew/publish/done/release) and
  /// returns the response document. Unknown ops return an error reply;
  /// nothing throws.
  service::Json Handle(const service::Json& request);

  /// Releases leases whose last fetch/renew is older than the lease
  /// horizon. Called from the connection loop's timeout slices, so a
  /// worker that stops sending heartbeats loses its units even while the
  /// connection technically stays up.
  void SweepExpired();

  std::size_t held() const { return leases_.size(); }

 private:
  using Clock = std::chrono::steady_clock;

  service::Json Fetch();
  service::Json Renew(const service::Json& request);
  service::Json Publish(const service::Json& request);
  service::Json Finish(const service::Json& request, bool mark_done);

  const WorkBroker& broker_;
  distrib::ClaimBoard board_;
  std::map<std::string, Clock::time_point> leases_;  // unit -> last renew
};

/// Shared, immutable broker configuration; sessions are created per
/// connection. Thread-safe by virtue of being read-only — all mutable
/// coordination state lives in the distrib dir and the store dir, which
/// are multi-process safe by design.
class WorkBroker {
 public:
  explicit WorkBroker(BrokerOptions options) : options_(std::move(options)) {}

  const BrokerOptions& options() const { return options_; }

  /// True when the daemon was configured with a distrib dir (worker
  /// connections are refused otherwise).
  bool enabled() const { return !options_.distrib_dir.empty(); }

  std::unique_ptr<BrokerSession> OpenSession(std::string owner) const {
    return std::make_unique<BrokerSession>(*this, std::move(owner));
  }

 private:
  BrokerOptions options_;
};

}  // namespace gpustl::net
