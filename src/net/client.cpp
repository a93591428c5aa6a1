#include "net/client.h"

#include <chrono>
#include <thread>

#include "net/handshake.h"

namespace gpustl::net {

using service::Json;

NetChannel::NetChannel(ChannelOptions options)
    : options_(std::move(options)), rng_(options_.rng_seed) {}

bool NetChannel::EnsureConnected(std::string* error, bool* fatal) {
  if (fatal != nullptr) *fatal = false;
  if (connected()) return true;
  conn_.reset();

  std::string last_error = "no attempts";
  for (int attempt = 0; attempt < options_.retry.attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          BackoffDelayMs(options_.retry, attempt - 1, rng_)));
    }
    const int fd =
        Connect(options_.endpoint, options_.connect_timeout_ms, &last_error);
    if (fd < 0) continue;
    auto conn = std::make_unique<Conn>(fd, options_.limits);
    const HandshakeResult hs =
        ClientHandshake(*conn, options_.secret, options_.role,
                        options_.handshake_deadline_ms);
    if (hs.ok) {
      conn_ = std::move(conn);
      return true;
    }
    last_error = hs.error;
    if (hs.fatal) {
      if (fatal != nullptr) *fatal = true;
      if (error != nullptr) *error = last_error;
      return false;
    }
  }
  if (error != nullptr) {
    *error = "connect attempts exhausted: " + last_error;
  }
  return false;
}

std::optional<Json> NetChannel::Call(const Json& request,
                                     int read_deadline_ms,
                                     std::string_view chaos_tag) {
  if (!Send(request, chaos_tag)) return std::nullopt;
  Json reply;
  if (Read(&reply, read_deadline_ms, chaos_tag) != IoStatus::kOk) {
    return std::nullopt;
  }
  return reply;
}

bool NetChannel::Send(const Json& request, std::string_view chaos_tag) {
  if (!connected()) return false;
  if (conn_->WriteJson(request, options_.write_deadline_ms, chaos_tag) !=
      IoStatus::kOk) {
    Disconnect();
    return false;
  }
  return true;
}

IoStatus NetChannel::Read(Json* doc, int deadline_ms,
                          std::string_view chaos_tag) {
  if (!connected()) return IoStatus::kClosed;
  const IoStatus status = conn_->ReadJson(doc, deadline_ms, chaos_tag);
  if (status != IoStatus::kOk && status != IoStatus::kTimeout) {
    Disconnect();
  }
  return status;
}

void NetChannel::Disconnect() { conn_.reset(); }

std::string GenerateClientJobId() { return MakeNonce(); }

SubmitOutcome ResumableSubmit(
    NetChannel& channel, Json request, const std::string& client_job,
    const std::function<void(const Json&)>& on_event, int max_resumes) {
  SubmitOutcome outcome;
  std::uint64_t last_seq = 0;

  for (int resume = 0; resume <= max_resumes; ++resume) {
    std::string error;
    bool fatal = false;
    if (!channel.EnsureConnected(&error, &fatal)) {
      outcome.transport_error = true;
      outcome.transport_detail = error;
      return outcome;
    }
    request.Set("client_job", client_job);
    request.Set("after_seq", last_seq);
    if (!channel.Send(request, "submit")) continue;

    bool stream_ok = true;
    while (stream_ok) {
      Json event;
      const IoStatus status = channel.Read(&event, -1, "event");
      if (status != IoStatus::kOk) {
        stream_ok = false;  // reconnect and resume from last_seq
        break;
      }
      const auto seq = static_cast<std::uint64_t>(event.GetInt("seq", 0));
      if (seq != 0) {
        if (seq <= last_seq) continue;  // replayed overlap; already seen
        last_seq = seq;
      }
      on_event(event);
      const std::string kind = event.GetString("event", "");
      if (kind == "complete" || kind == "failed" || kind == "rejected") {
        outcome.terminal = event;
        return outcome;
      }
      if (kind == "error" && seq == 0) {
        // A protocol-level error outside any job stream is terminal for
        // this submit: the daemon will never produce job events for it.
        outcome.terminal = event;
        return outcome;
      }
    }
  }
  outcome.transport_error = true;
  outcome.transport_detail = "event stream resume budget exhausted";
  return outcome;
}

}  // namespace gpustl::net
