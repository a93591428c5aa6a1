// Client-side transport: reconnecting channel + resumable submit.
//
// NetChannel wraps connect → handshake → framed I/O with the retry
// policy every off-box peer shares: exponential backoff with jitter
// between connect cycles, immediate abort on fatal handshake failures
// (bad secret, protocol mismatch) — retrying those would hammer a daemon
// that will never say yes.
//
// ResumableSubmit is the full client half of the idempotent submit
// protocol: it stamps the request with a client-generated job id, tracks
// the highest event `seq` it has seen, and on any mid-stream disconnect
// reconnects and re-sends the same submit with `after_seq` — the daemon
// side (JobLedger) dedupes the job and replays only the missing tail, so
// the observed event stream has no duplicated and no lost events, ending
// in exactly one terminal event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "net/frame.h"
#include "net/net.h"

namespace gpustl::net {

struct ChannelOptions {
  Endpoint endpoint;
  std::string secret;
  std::string role = "client";  // or "worker"
  RetryPolicy retry;
  int connect_timeout_ms = 5000;
  int handshake_deadline_ms = 10000;
  int write_deadline_ms = 30000;
  /// Jitter stream seed — fixed by tests for reproducible backoff.
  std::uint64_t rng_seed = 0x6e65742d636c69ull;
  FrameLimits limits;
};

class NetChannel {
 public:
  explicit NetChannel(ChannelOptions options);

  /// Connects and handshakes if not already connected, retrying up to
  /// `retry.attempts` cycles with backoff. Returns false with a
  /// diagnostic; `fatal` (nullable) is set when retrying is pointless.
  bool EnsureConnected(std::string* error, bool* fatal = nullptr);

  /// One request/response round trip (the worker RPC shape). Returns
  /// nullopt on any transport failure — the connection is dropped and
  /// the next EnsureConnected reconnects.
  std::optional<service::Json> Call(const service::Json& request,
                                    int read_deadline_ms,
                                    std::string_view chaos_tag = {});

  /// One-way send / read for the client event-stream shape.
  bool Send(const service::Json& request, std::string_view chaos_tag = {});
  IoStatus Read(service::Json* doc, int deadline_ms,
                std::string_view chaos_tag = {});

  void Disconnect();
  bool connected() const { return conn_ != nullptr && !conn_->closed(); }

 private:
  ChannelOptions options_;
  Rng rng_;
  std::unique_ptr<Conn> conn_;
};

/// A fresh client job id (32 hex chars), unique across processes.
std::string GenerateClientJobId();

struct SubmitOutcome {
  /// Transport gave out (connect attempts exhausted, fatal handshake
  /// failure, or too many mid-stream disconnects) — maps to the client
  /// tool's exit code 5. The job may still be running on the daemon.
  bool transport_error = false;
  std::string transport_detail;
  /// The terminal event (complete/failed/rejected) when !transport_error.
  service::Json terminal;
};

/// Drives `submit` to its terminal event with reconnect + resume.
/// `request` is the submit document (client_job/after_seq are managed
/// here); `on_event` sees every event exactly once, in order, including
/// the terminal one. `max_resumes` bounds mid-stream reconnect cycles.
SubmitOutcome ResumableSubmit(NetChannel& channel, service::Json request,
                              const std::string& client_job,
                              const std::function<void(const service::Json&)>& on_event,
                              int max_resumes = 32);

}  // namespace gpustl::net
