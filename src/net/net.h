// Off-box transport plumbing shared by the TCP server and clients:
// endpoint parsing, socket setup, hex payload encoding, and the
// exponential-backoff schedule every reconnect loop draws from.
//
// Everything here is deliberately tiny and dependency-free (BSD sockets
// only). The interesting protocol machinery lives next door: frame.h
// (length-framed NDJSON), handshake.h (shared-secret hello), tcp_server.h
// (the daemon side), client.h (retry/resume side).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace gpustl::net {

/// A `host:port` pair. Listening with port 0 binds an ephemeral port.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses `host:port` (numeric IPv4 or a resolvable name). Returns
/// nullopt with a diagnostic in `error` (nullable) on malformed input.
std::optional<Endpoint> ParseEndpoint(std::string_view text,
                                      std::string* error = nullptr);

/// Lowercase hex codec for binary payloads embedded in JSON frames (unit
/// files, store entries). Decode rejects odd lengths and non-hex bytes.
std::string HexEncode(std::string_view bytes);
std::optional<std::string> HexDecode(std::string_view hex);

/// Reconnect/backoff policy: attempt k (0-based) sleeps
/// `min(base_ms << k, max_ms)` scaled by a random factor in
/// [1-jitter, 1], so synchronized clients spread out instead of
/// thundering back in lockstep.
struct RetryPolicy {
  int attempts = 8;       // connect cycles before giving up
  int base_ms = 50;       // first-retry delay
  int max_ms = 2000;      // backoff cap
  double jitter = 0.5;    // fraction of the delay randomized away
};

/// The delay before retry `attempt` (0-based; attempt 0 = the delay after
/// the first failure). Deterministic in (policy, attempt, rng state).
int BackoffDelayMs(const RetryPolicy& policy, int attempt, Rng& rng);

/// Binds and listens on `endpoint` (SO_REUSEADDR). Returns the listen fd,
/// or -1 with a diagnostic; `bound_port` (nullable) receives the actual
/// port — the way an ephemeral `:0` listener learns its address.
int ListenTcp(const Endpoint& endpoint, std::string* error,
              std::uint16_t* bound_port = nullptr);

/// Connects with a bounded wait. Returns the connected fd or -1 with a
/// diagnostic. The fd is left in blocking mode; Conn flips it.
int ConnectTcp(const Endpoint& endpoint, int timeout_ms, std::string* error);

/// Accepts one connection on a ListenTcp fd. Returns the connected fd or
/// -1 (errno set by accept). Both ends of a connection made by these
/// helpers send small frames at once (TCP_NODELAY): an event must not wait
/// behind the previous one's delayed ACK.
int AcceptTcp(int listen_fd);

}  // namespace gpustl::net
