// Server: gpustld's one listener, on any mix of unix and TCP endpoints.
//
// Every endpoint speaks the same framed transport (net/frame.h) behind
// the same shared-secret handshake (net/handshake.h), and serves two
// peer roles:
//
//   clients  the gpustld op surface (ping/status/shutdown/submit), with
//            submit made idempotent and resumable by the JobLedger —
//            every submit must carry a client-generated `client_job` id
//            and may carry `after_seq` to resume its event stream.
//   workers  the distrib claim protocol brokered as RPCs
//            (fetch/renew/publish/done/release — net/broker.h).
//
// The endpoints differ in one rule only: a submit arriving over TCP may
// not name a daemon-side file (`manifest`, an entry `path`,
// `checkpoint_dir`) — it is rejected `bad-request` before any file is
// opened. A unix peer is already bounded by the socket file's
// permissions, so it keeps path-bearing submits.
//
// Threading: one accept loop polling every listen socket and a self-pipe,
// one thread per connection. A connection closes its fd as it ends; the
// accept loop joins and forgets ended connections, so a long-running
// daemon holds descriptors and threads only for live peers. Event writes happen on service worker
// threads under a per-connection mutex with a bounded deadline — a peer
// that stops draining (chaos `slow-peer`) is disconnected, and its job's
// events keep accumulating in the ledger for the reconnect.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/broker.h"
#include "net/frame.h"
#include "net/ledger.h"
#include "net/net.h"
#include "service/service.h"

namespace gpustl::net {

struct ServerOptions {
  /// Where to listen; one accept loop serves them all.
  std::vector<Endpoint> endpoints;
  /// Shared handshake secret for every endpoint; empty accepts any peer.
  std::string secret;
  /// Handshake must finish within this budget.
  int handshake_deadline_ms = 10000;
  /// Per-frame write budget for events and replies (slow-peer bound).
  int write_deadline_ms = 30000;
  /// Worker-connection read slice: lease sweeps run at this cadence.
  int worker_slice_ms = 1000;
  FrameLimits limits;
};

class Server {
 public:
  /// `broker` may be disabled (no distrib dir) — worker connections are
  /// then refused with an error frame.
  Server(service::CampaignService& service, WorkBroker broker,
         ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on every endpoint. False (with a diagnostic) on
  /// the first failure — an over-long socket path, a live daemon on the
  /// socket file, a port in use, ...
  bool Start(std::string* error);

  /// Accept loop; blocks until RequestStop (or a `shutdown` op on any
  /// endpoint). New connections stop being accepted at once.
  void Serve();

  /// Async-signal-safe stop (a single write to the self-pipe).
  void RequestStop();

  /// After Serve returns and the service is drained: wakes blocked
  /// connection readers, joins their threads, and closes the listeners
  /// (removing unix socket files).
  void JoinConnections();

  /// The endpoints as bound, in option order: a TCP `:0` carries the
  /// actual port.
  const std::vector<Endpoint>& endpoints() const { return endpoints_; }

  /// Ledger introspection for tests.
  JobLedger& ledger() { return ledger_; }

 private:
  struct Connection;
  void CloseListeners();
  /// Joins and drops connections whose thread has finished (conns_mu_).
  void ReapEndedConnections();
  void HandleConnection(const std::shared_ptr<Connection>& conn);
  void ServeClient(const std::shared_ptr<Connection>& conn);
  void ServeWorker(const std::shared_ptr<Connection>& conn);

  service::CampaignService& service_;
  WorkBroker broker_;
  ServerOptions options_;
  JobLedger ledger_;

  std::vector<Endpoint> endpoints_;  // bound, parallel to listen_fds_
  std::vector<int> listen_fds_;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};

  // Also orders Connection::Close against JoinConnections' Shutdown, so
  // a shutdown never reaches a recycled descriptor number.
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
};

}  // namespace gpustl::net
