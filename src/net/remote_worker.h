// RunRemoteWorker: the gpustl-worker loop over a daemon connection (TCP
// or unix) instead of a shared filesystem.
//
// Work units arrive as RPCs (net/broker.h): fetch a unit, renew its
// lease every lease/3 seconds while the simulation runs (the server also
// touches the claim-file mtime, so coordinator-side stale stealing keeps
// working), then publish the resulting store entry's bytes and mark the
// unit done. The simulation itself is the exact same UnitRunner the
// local worker uses, run against a private scratch store — the published
// GSRE bytes are therefore byte-identical to what a local worker would
// have written, and the server validates them (key + checksum) before
// installing.
//
// Connection loss at ANY point is survivable: the channel reconnects
// with backoff, publishes are content-addressed and idempotent, and a
// unit whose lease died with the old connection was already re-issued to
// someone else — finishing it here is duplicate work, never a wrong
// answer. Only a fatal handshake failure (bad secret) aborts the worker.
#pragma once

#include <atomic>
#include <string>

#include "distrib/worker.h"
#include "net/client.h"

namespace gpustl::net {

struct RemoteWorkerOptions {
  Endpoint endpoint;
  std::string secret;
  /// Diagnostic owner label for stats lines; "" = "pid:<pid>".
  std::string owner;
  /// Fault-sim threads per unit.
  int threads = 1;
  /// Idle poll interval when the daemon has no unit to hand out.
  int poll_ms = 200;
  /// Scratch directory for the local result store; "" = a fresh temp dir,
  /// removed on exit.
  std::string scratch_dir;
  /// Per-RPC response deadline.
  int rpc_deadline_ms = 30000;
  /// Reconnect schedule (per connect cycle; cycles repeat until `stop`).
  RetryPolicy retry;
  /// External stop flag (not owned; null = none).
  const std::atomic<bool>* stop = nullptr;
};

/// Runs until the daemon reports the campaign done, the stop flag is
/// raised, or a fatal handshake failure (throws Error). Returns the unit
/// totals in the same shape as the local worker.
distrib::WorkerStats RunRemoteWorker(const RemoteWorkerOptions& options);

}  // namespace gpustl::net
