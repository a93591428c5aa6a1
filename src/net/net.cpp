#include "net/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/strutil.h"

namespace gpustl::net {

namespace {

/// The longest path a sockaddr_un holds (its terminating NUL excluded).
constexpr std::size_t kMaxUnixPath = sizeof(sockaddr_un{}.sun_path) - 1;

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// Resolves `host` to an IPv4 sockaddr_in. Numeric addresses never touch
/// the resolver.
bool ResolveHost(const std::string& host, in_addr* out, std::string* error) {
  if (::inet_pton(AF_INET, host.c_str(), out) == 1) return true;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr) {
    SetError(error, "cannot resolve " + host + ": " + ::gai_strerror(rc));
    return false;
  }
  *out = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return true;
}

/// The socket address of `endpoint`: AF_UNIX for a socket file, IPv4
/// otherwise.
bool ResolveAddress(const Endpoint& endpoint, sockaddr_storage* addr,
                    socklen_t* len, std::string* error) {
  if (endpoint.is_unix()) {
    auto* un = reinterpret_cast<sockaddr_un*>(addr);
    if (endpoint.unix_path.size() > kMaxUnixPath) {
      SetError(error, "socket path too long: " + endpoint.unix_path);
      return false;
    }
    un->sun_family = AF_UNIX;
    std::memcpy(un->sun_path, endpoint.unix_path.c_str(),
                endpoint.unix_path.size() + 1);
    *len = sizeof(sockaddr_un);
    return true;
  }
  auto* in = reinterpret_cast<sockaddr_in*>(addr);
  in->sin_family = AF_INET;
  in->sin_port = htons(endpoint.port);
  *len = sizeof(sockaddr_in);
  return ResolveHost(endpoint.host, &in->sin_addr, error);
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::string Endpoint::ToString() const {
  return is_unix() ? "unix:" + unix_path
                   : host + ":" + std::to_string(port);
}

std::optional<Endpoint> ParseEndpoint(std::string_view text,
                                      std::string* error) {
  if (text.substr(0, 5) == "unix:") {
    Endpoint ep;
    ep.unix_path = std::string(text.substr(5));
    if (ep.unix_path.empty()) {
      SetError(error, "expected unix:<path>, got '" + std::string(text) + "'");
      return std::nullopt;
    }
    if (ep.unix_path.size() > kMaxUnixPath) {
      SetError(error, "socket path too long: " + ep.unix_path);
      return std::nullopt;
    }
    return ep;
  }
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    SetError(error, "expected host:port or unix:<path>, got '" +
                        std::string(text) + "'");
    return std::nullopt;
  }
  const auto port = ParseInt(text.substr(colon + 1));
  if (!port || *port < 0 || *port > 65535) {
    SetError(error, "bad port in '" + std::string(text) + "'");
    return std::nullopt;
  }
  Endpoint ep;
  ep.host = std::string(text.substr(0, colon));
  ep.port = static_cast<std::uint16_t>(*port);
  return ep;
}

std::string HexEncode(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::optional<std::string> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

int BackoffDelayMs(const RetryPolicy& policy, int attempt, Rng& rng) {
  const int shift = std::min(attempt, 20);  // 2^20 * base already caps
  double delay = static_cast<double>(policy.base_ms) *
                 static_cast<double>(1u << shift);
  delay = std::min(delay, static_cast<double>(policy.max_ms));
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  delay *= 1.0 - jitter * rng.uniform();
  return std::max(1, static_cast<int>(delay));
}

int Listen(const Endpoint& endpoint, std::string* error,
           std::uint16_t* bound_port) {
  sockaddr_storage addr{};
  socklen_t len = 0;
  if (!ResolveAddress(endpoint, &addr, &len, error)) return -1;
  const auto* sa = reinterpret_cast<const sockaddr*>(&addr);
  if (endpoint.is_unix()) {
    // A socket file blocks bind. Remove it only if nothing is listening
    // there (connect refused = a crashed daemon's leftover).
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const bool live = ::connect(probe, sa, len) == 0;
      ::close(probe);
      if (live) {
        SetError(error, "another daemon is listening on " + endpoint.unix_path);
        return -1;
      }
    }
    ::unlink(endpoint.unix_path.c_str());
  }

  const int fd = ::socket(addr.ss_family, SOCK_STREAM, 0);
  if (fd < 0) {
    SetError(error, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  if (!endpoint.is_unix()) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, sa, len) != 0) {
    SetError(error, "bind " + endpoint.ToString() + ": " +
                        std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    SetError(error, std::string("listen: ") + std::strerror(errno));
    CloseListener(fd, endpoint);
    return -1;
  }
  if (bound_port != nullptr && !endpoint.is_unix()) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  return fd;
}

void CloseListener(int listen_fd, const Endpoint& endpoint) {
  if (listen_fd < 0) return;
  ::close(listen_fd);
  if (endpoint.is_unix()) ::unlink(endpoint.unix_path.c_str());
}

int Connect(const Endpoint& endpoint, int timeout_ms, std::string* error) {
  sockaddr_storage addr{};
  socklen_t len = 0;
  if (!ResolveAddress(endpoint, &addr, &len, error)) return -1;

  const int fd = ::socket(addr.ss_family, SOCK_STREAM, 0);
  if (fd < 0) {
    SetError(error, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  // Nonblocking connect + poll gives the bounded wait; the fd goes back to
  // blocking before it is handed out (Conn manages its own readiness).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), len);
  if (rc != 0 && errno != EINPROGRESS) {
    SetError(error, "connect " + endpoint.ToString() + ": " +
                        std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    int soerr = 0;
    socklen_t soerr_len = sizeof(soerr);
    if (ready > 0) {
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len);
    }
    if (ready <= 0 || soerr != 0) {
      SetError(error, "connect " + endpoint.ToString() + ": " +
                          (ready <= 0 ? "timed out"
                                      : std::strerror(soerr)));
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  if (!endpoint.is_unix()) SetNoDelay(fd);
  return fd;
}

int Accept(int listen_fd) {
  sockaddr_storage peer{};
  socklen_t len = sizeof(peer);
  const int fd =
      ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len);
  if (fd >= 0 && peer.ss_family == AF_INET) SetNoDelay(fd);
  return fd;
}

}  // namespace gpustl::net
