#include "net/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/strutil.h"

namespace gpustl::net {

namespace {

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

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::optional<Endpoint> ParseEndpoint(std::string_view text,
                                      std::string* error) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    SetError(error, "expected host:port, got '" + std::string(text) + "'");
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

int ListenTcp(const Endpoint& endpoint, std::string* error,
              std::uint16_t* bound_port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (!ResolveHost(endpoint.host, &addr.sin_addr, error)) return -1;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    SetError(error, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    SetError(error, "bind " + endpoint.host + ":" +
                        std::to_string(endpoint.port) + ": " +
                        std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    SetError(error, std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  return fd;
}

int ConnectTcp(const Endpoint& endpoint, int timeout_ms, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (!ResolveHost(endpoint.host, &addr.sin_addr, error)) return -1;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    SetError(error, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  // Nonblocking connect + poll gives the bounded wait; the fd goes back to
  // blocking before it is handed out (Conn manages its own readiness).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    SetError(error, "connect " + endpoint.host + ":" +
                        std::to_string(endpoint.port) + ": " +
                        std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (ready > 0) {
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    }
    if (ready <= 0 || soerr != 0) {
      SetError(error, "connect " + endpoint.host + ":" +
                          std::to_string(endpoint.port) + ": " +
                          (ready <= 0 ? "timed out"
                                      : std::strerror(soerr)));
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  SetNoDelay(fd);
  return fd;
}

int AcceptTcp(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) SetNoDelay(fd);
  return fd;
}

}  // namespace gpustl::net
