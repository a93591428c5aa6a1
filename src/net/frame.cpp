#include "net/frame.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/chaos.h"

namespace gpustl::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Longest sane header: 20 digits covers any u64 length.
constexpr std::size_t kMaxHeaderDigits = 20;

/// Remaining budget in ms for poll(2); -1 = infinite, 0 = expired.
int RemainingMs(const Clock::time_point& deadline, bool infinite) {
  if (infinite) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left <= 0 ? 0 : static_cast<int>(left);
}

}  // namespace

std::string_view IoStatusName(IoStatus status) {
  switch (status) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kTimeout:
      return "timeout";
    case IoStatus::kClosed:
      return "closed";
    case IoStatus::kFrameTooLarge:
      return "frame-too-large";
    case IoStatus::kTorn:
      return "torn-frame";
    case IoStatus::kError:
      return "io-error";
  }
  return "?";
}

Conn::Conn(int fd, FrameLimits limits) : fd_(fd), limits_(limits) {
  if (fd_ >= 0) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }
}

Conn::~Conn() { Close(); }

void Conn::Close() {
  dead_.store(true, std::memory_order_release);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Conn::Kill() {
  if (!dead_.exchange(true, std::memory_order_acq_rel) && fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void Conn::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

IoStatus Conn::WriteFrame(std::string_view payload, int deadline_ms,
                          std::string_view chaos_tag) {
  if (fd_ < 0 || closed()) return IoStatus::kClosed;
  if (payload.size() > limits_.max_frame_bytes) {
    Kill();
    return IoStatus::kFrameTooLarge;
  }
  if (chaos::Fail(chaos::Site::kConnDrop, chaos_tag)) {
    Kill();
    return IoStatus::kClosed;
  }
  if (chaos::Fail(chaos::Site::kSlowPeer, chaos_tag)) {
    // The peer stopped draining: the write deadline expires with the
    // frame stuck in our buffer. Same observable outcome, no real stall.
    Kill();
    return IoStatus::kTimeout;
  }

  std::string frame = std::to_string(payload.size());
  frame.push_back('\n');
  frame.append(payload);
  frame.push_back('\n');

  std::size_t limit = frame.size();
  bool drop_after_prefix = false;
  if (chaos::Fail(chaos::Site::kPartialWrite, chaos_tag)) {
    limit = frame.size() / 2;
    drop_after_prefix = true;
  }

  const bool infinite = deadline_ms < 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(infinite ? 0 : deadline_ms);
  std::size_t off = 0;
  while (off < limit) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, limit - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int wait = RemainingMs(deadline, infinite);
      if (wait == 0) {
        Kill();
        return IoStatus::kTimeout;
      }
      pollfd pfd{fd_, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, wait);
      if (ready < 0 && errno != EINTR) {
        Kill();
        return IoStatus::kError;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Kill();
    return errno == EPIPE || errno == ECONNRESET ? IoStatus::kClosed
                                                 : IoStatus::kError;
  }
  if (drop_after_prefix) {
    Kill();
    return IoStatus::kClosed;
  }
  return IoStatus::kOk;
}

IoStatus Conn::ReadFrame(std::string* payload, int deadline_ms,
                         std::string_view chaos_tag) {
  if (fd_ < 0 || closed()) return IoStatus::kClosed;
  if (chaos::Fail(chaos::Site::kConnDrop, chaos_tag)) {
    Kill();
    return IoStatus::kClosed;
  }

  const bool infinite = deadline_ms < 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(infinite ? 0 : deadline_ms);

  while (true) {
    // Try to parse a complete frame out of what is buffered.
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos || buffer_.size() > kMaxHeaderDigits) {
      if (nl == std::string::npos || nl == 0 || nl > kMaxHeaderDigits) {
        Kill();
        return IoStatus::kTorn;
      }
      std::size_t length = 0;
      for (std::size_t i = 0; i < nl; ++i) {
        const char c = buffer_[i];
        if (c < '0' || c > '9') {
          Kill();
          return IoStatus::kTorn;
        }
        length = length * 10 + static_cast<std::size_t>(c - '0');
      }
      if (length > limits_.max_frame_bytes) {
        Kill();
        return IoStatus::kFrameTooLarge;
      }
      const std::size_t total = nl + 1 + length + 1;
      if (buffer_.size() >= total) {
        if (buffer_[total - 1] != '\n') {
          Kill();
          return IoStatus::kTorn;
        }
        payload->assign(buffer_, nl + 1, length);
        buffer_.erase(0, total);
        return IoStatus::kOk;
      }
    }

    // Need more bytes.
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      Kill();
      // EOF mid-frame is a torn frame; EOF on a clean boundary is a
      // normal close.
      return buffer_.empty() ? IoStatus::kClosed : IoStatus::kTorn;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const int wait = RemainingMs(deadline, infinite);
      if (wait == 0) return IoStatus::kTimeout;  // conn stays usable
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, wait);
      if (ready < 0 && errno != EINTR) {
        Kill();
        return IoStatus::kError;
      }
      continue;
    }
    Kill();
    return errno == ECONNRESET ? IoStatus::kClosed : IoStatus::kError;
  }
}

IoStatus Conn::WriteJson(const service::Json& doc, int deadline_ms,
                         std::string_view chaos_tag) {
  return WriteFrame(doc.Dump(), deadline_ms, chaos_tag);
}

IoStatus Conn::ReadJson(service::Json* doc, int deadline_ms,
                        std::string_view chaos_tag) {
  std::string payload;
  const IoStatus status = ReadFrame(&payload, deadline_ms, chaos_tag);
  if (status != IoStatus::kOk) return status;
  auto parsed = service::Json::Parse(payload);
  if (!parsed) {
    Kill();
    return IoStatus::kTorn;
  }
  *doc = std::move(*parsed);
  return IoStatus::kOk;
}

}  // namespace gpustl::net
