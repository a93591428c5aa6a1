// Shared-secret connection handshake.
//
// The TCP listener is reachable from other machines, so it cannot lean
// on filesystem permissions the way the AF_UNIX socket can. The first
// exchange on every connection, on either endpoint, authenticates the
// peer:
//
//   server -> {op:"hello", proto:1, nonce:"<32 hex>"}
//   client -> {op:"auth", role:"client"|"worker", proof:"<32 hex>"}
//   server -> {op:"hello-ok"}            (or {op:"hello-fail", error:...})
//
// `proof` is Hash128(domain-tag, nonce, secret) — the secret never
// crosses the wire, and a replayed proof is useless against a fresh
// nonce. An empty server secret accepts any proof (trusted networks,
// tests). This is a keyed integrity check against accidental or casual
// connections, not a cryptographic authentication scheme; run the
// daemon behind a real network boundary for anything stronger.
//
// Failure taxonomy matters for the reconnect loops: `hello-fail` with
// error "bad-secret" is FATAL (retrying cannot help — the client gives
// up immediately), while a connection torn during the handshake (chaos
// site `handshake-fail`, a dying daemon, a mid-restart listener) is
// RETRYABLE and feeds the normal backoff schedule.
#pragma once

#include <string>

#include "net/frame.h"

namespace gpustl::net {

inline constexpr int kProtoVersion = 1;

/// Outcome of either side of the handshake.
struct HandshakeResult {
  bool ok = false;
  /// Set on failures that retrying cannot fix (bad secret, protocol
  /// version mismatch). Transport-level failures leave it false.
  bool fatal = false;
  /// Server side: the authenticated peer role ("client" or "worker").
  std::string role;
  std::string error;
};

/// The proof for a nonce/secret pair: 32 lowercase hex chars.
std::string AuthProof(const std::string& nonce_hex,
                      const std::string& secret);

/// A fresh per-connection nonce (32 hex chars). Unpredictable enough to
/// defeat proof replay; not a CSPRNG.
std::string MakeNonce();

/// Runs the server side on `conn`. Empty `secret` accepts any proof.
/// Chaos site `handshake-fail` aborts after the greeting (the peer sees
/// a torn connection and must treat it as retryable). On failure the
/// connection is closed.
HandshakeResult ServerHandshake(Conn& conn, const std::string& secret,
                                int deadline_ms);

/// Runs the client side on `conn`, announcing `role`. On failure the
/// connection is closed; check `fatal` before scheduling a retry.
HandshakeResult ClientHandshake(Conn& conn, const std::string& secret,
                                const std::string& role, int deadline_ms);

}  // namespace gpustl::net
