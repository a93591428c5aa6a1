#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <thread>

#include "common/error.h"
#include "net/handshake.h"
#include "service/protocol.h"

namespace gpustl::net {

using service::Json;

struct Server::Connection {
  Connection(int fd, FrameLimits limits, bool tcp)
      : conn(fd, limits), tcp(tcp) {}

  Conn conn;
  const bool tcp;  // arrived on a TCP endpoint: submits stay inline-only
  std::thread thread;  // runs HandleConnection; joined by the server
  std::atomic<bool> ended{false};  // HandleConnection returned
  std::mutex write_mu;

  // Ledger attachments made by this connection's reader thread (reader
  // thread only; detached when the connection ends).
  std::vector<std::pair<std::string, std::uint64_t>> attachments;

  /// Serialized, deadline-bounded frame write. Returns false once the
  /// connection is closed (a failed write closes it); never detaches
  /// from the ledger here (the reader thread owns that) — events simply
  /// stop being delivered and keep accumulating in the ledger.
  bool WriteDoc(const Json& doc, int deadline_ms,
                std::string_view chaos_tag) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (conn.closed()) return false;  // skip serializing for a dead peer
    return conn.WriteJson(doc, deadline_ms, chaos_tag) == IoStatus::kOk;
  }
};

Server::Server(service::CampaignService& service, WorkBroker broker,
               ServerOptions options)
    : service_(service),
      broker_(std::move(broker)),
      options_(std::move(options)) {}

Server::~Server() {
  CloseListeners();
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

bool Server::Start(std::string* error) {
  if (::pipe(stop_pipe_) != 0) {
    if (error) *error = "pipe failed";
    return false;
  }
  for (Endpoint endpoint : options_.endpoints) {
    const int fd = Listen(endpoint, error, &endpoint.port);
    if (fd < 0) return false;
    endpoints_.push_back(std::move(endpoint));
    listen_fds_.push_back(fd);
  }
  return true;
}

void Server::CloseListeners() {
  for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
    CloseListener(listen_fds_[i], endpoints_[i]);
  }
  listen_fds_.clear();
}

void Server::RequestStop() {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
}

void Server::Serve() {
  std::vector<pollfd> fds;
  for (const int fd : listen_fds_) fds.push_back({fd, POLLIN, 0});
  fds.push_back({stop_pipe_[0], POLLIN, 0});
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds.back().revents != 0) {
      stopping_.store(true, std::memory_order_relaxed);
      break;
    }
    for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int fd = Accept(fds[i].fd);
      if (fd < 0) continue;
      auto conn = std::make_shared<Connection>(fd, options_.limits,
                                               !endpoints_[i].is_unix());
      std::lock_guard<std::mutex> lock(conns_mu_);
      ReapEndedConnections();
      conns_.push_back(conn);
      conn->thread = std::thread([this, conn] {
        HandleConnection(conn);
        conn->ended.store(true, std::memory_order_release);
      });
    }
  }
}

void Server::ReapEndedConnections() {
  std::erase_if(conns_, [](const std::shared_ptr<Connection>& conn) {
    if (!conn->ended.load(std::memory_order_acquire)) return false;
    conn->thread.join();
    return true;
  });
}

void Server::JoinConnections() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) conn->conn.Shutdown();
  }
  for (const auto& conn : conns_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  conns_.clear();
  CloseListeners();
}

void Server::HandleConnection(const std::shared_ptr<Connection>& conn) {
  const HandshakeResult hs = ServerHandshake(
      conn->conn, options_.secret, options_.handshake_deadline_ms);
  if (hs.ok && hs.role == "worker") {
    ServeWorker(conn);
  } else if (hs.ok) {
    ServeClient(conn);
  }
  for (const auto& [client_job, attach_id] : conn->attachments) {
    ledger_.Detach(client_job, attach_id);
  }
  // Release the descriptor now, not when the server goes: write_mu keeps
  // event writers off it, conns_mu_ keeps JoinConnections' Shutdown off
  // the number once the kernel may hand it out again.
  std::lock_guard<std::mutex> write_lock(conn->write_mu);
  std::lock_guard<std::mutex> conns_lock(conns_mu_);
  conn->conn.Close();
}

void Server::ServeClient(const std::shared_ptr<Connection>& conn) {
  while (!conn->conn.closed()) {
    Json request;
    // Infinite read: a client parked between requests waiting for job
    // events is normal. JoinConnections wakes us via Shutdown.
    const IoStatus status = conn->conn.ReadJson(&request, -1, "request");
    if (status != IoStatus::kOk) break;

    const std::string op = request.GetString("op");
    if (op == "ping") {
      conn->WriteDoc(service::EventPong(), options_.write_deadline_ms,
                     "reply");
    } else if (op == "status") {
      conn->WriteDoc(service_.Status(), options_.write_deadline_ms,
                     "reply");
    } else if (op == "shutdown") {
      Json ok = Json::Object();
      ok.Set("event", "ok");
      conn->WriteDoc(ok, options_.write_deadline_ms, "reply");
      RequestStop();
      break;
    } else if (op == "submit") {
      const std::string client_job = request.GetString("client_job", "");
      if (client_job.empty()) {
        conn->WriteDoc(
            service::EventRejected(0, "bad-request",
                                   "submit requires client_job"),
            options_.write_deadline_ms, "event");
        continue;
      }
      const auto after_seq =
          static_cast<std::uint64_t>(request.GetInt("after_seq", 0));
      const int deadline = options_.write_deadline_ms;
      auto info = ledger_.Open(
          client_job, after_seq, [conn, deadline](const Json& event) {
            conn->WriteDoc(event, deadline, "event");
          });
      conn->attachments.emplace_back(client_job, info.attach_id);
      if (!info.created) continue;  // dedup: replay + attach did the work

      service::SubmitRequest req;
      std::string error;
      if (!service::ParseSubmitRequest(request, &req, &error)) {
        // Recorded, not just written: a resubmit of a malformed job
        // replays the same rejection instead of dangling forever.
        info.record(service::EventRejected(0, "bad-request", error));
        continue;
      }
      // Checked before MakeJobSpec opens anything: a TCP peer, possibly
      // anyone when the secret is empty, must not steer the daemon's
      // file reads or writes.
      if (const std::string field = service::PathField(req);
          conn->tcp && !field.empty()) {
        info.record(service::EventRejected(
            0, "bad-request",
            field + " names a path on the daemon; a TCP submit carries "
                    "its PTPs inline and no checkpoint_dir"));
        continue;
      }
      service::JobSpec spec;
      try {
        spec = service::MakeJobSpec(req);
      } catch (const Error& e) {
        info.record(service::EventRejected(0, "bad-request", e.what()));
        continue;
      }
      service_.Submit(std::move(spec), info.record);
    } else {
      conn->WriteDoc(service::EventError("unknown op: " + op),
                     options_.write_deadline_ms, "reply");
    }
  }
}

void Server::ServeWorker(const std::shared_ptr<Connection>& conn) {
  if (!broker_.enabled()) {
    Json deny;
    deny.Set("op", "error");
    deny.Set("error", "daemon has no distrib dir (start with --distrib)");
    conn->WriteDoc(deny, options_.write_deadline_ms, "reply");
    return;
  }
  auto session = broker_.OpenSession(
      "net-worker-" + std::to_string(conn->conn.fd()) + "-" +
      std::to_string(static_cast<unsigned long>(::getpid())));
  while (!conn->conn.closed() &&
         !stopping_.load(std::memory_order_relaxed)) {
    Json request;
    const IoStatus status =
        conn->conn.ReadJson(&request, options_.worker_slice_ms, "request");
    if (status == IoStatus::kTimeout) {
      // Heartbeat-loss path: a worker that went quiet without
      // disconnecting loses its leases after the horizon.
      session->SweepExpired();
      continue;
    }
    if (status != IoStatus::kOk) break;
    if (!conn->WriteDoc(session->Handle(request),
                        options_.write_deadline_ms, "reply")) {
      break;
    }
  }
  // ~BrokerSession releases every held lease: a SIGKILLed remote worker's
  // unit is back in the pool the moment its connection dies.
}

}  // namespace gpustl::net
