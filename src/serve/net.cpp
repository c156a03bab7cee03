#include "serve/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "trace/fields.h"

namespace geovalid::serve {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("invalid IPv4 address: " + host);
  }
  return addr;
}

bool equals_ignore_case(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto la = static_cast<unsigned char>(a[i]);
    const auto lb = static_cast<unsigned char>(b[i]);
    if (std::tolower(la) != std::tolower(lb)) return false;
  }
  return true;
}

using Clock = std::chrono::steady_clock;

/// The timeout that sets no deadline: poll() blocks.
constexpr int kNoDeadline = -1;

Clock::time_point deadline_after(int timeout_ms) {
  return timeout_ms == kNoDeadline
             ? Clock::time_point::max()
             : Clock::now() + std::chrono::milliseconds(timeout_ms);
}

/// Whole milliseconds left before `deadline`; never negative, and a
/// not-yet-expired deadline always reports at least 1 so poll() cannot
/// round a live budget down to a busy-spin or an instant timeout. No
/// deadline reports -1 (poll() blocks).
int remaining_ms(Clock::time_point deadline) {
  if (deadline == Clock::time_point::max()) return kNoDeadline;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  return static_cast<int>(left.count());
}

[[noreturn]] void throw_deadline(const std::string& what) {
  throw NetError(what + ": deadline exceeded");
}

/// poll() for `events` on `fd` until the deadline; false on expiry.
bool poll_until(int fd, short events, Clock::time_point deadline) {
  while (true) {
    const int budget = remaining_ms(deadline);
    if (budget == 0) return false;
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int rc = ::poll(&p, 1, budget);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (rc > 0) return true;
  }
}

/// The one request path: connect, send and read the whole response
/// within `timeout_ms` (kNoDeadline: as long as the peer takes).
HttpResponse http_request(const std::string& host, std::uint16_t port,
                          const std::string& method, const std::string& target,
                          int timeout_ms, const std::string& body = {},
                          const std::string& content_type = {}) {
  const std::string what =
      "http " + method + " " + target + " to " + host + ":" +
      std::to_string(port);
  const Clock::time_point deadline = deadline_after(timeout_ms);
  Fd fd = tcp_connect_deadline(host, port, timeout_ms);

  const std::string request =
      build_request(host, method, target, body, content_type);
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd.get(), request.data() + off,
                             request.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!poll_until(fd.get(), POLLOUT, deadline)) throw_deadline(what);
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        throw NetError(what + ": peer closed");
      }
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }

  std::string raw;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!poll_until(fd.get(), POLLIN, deadline)) throw_deadline(what);
        continue;
      }
      if (errno == ECONNRESET) break;  // peer reset after its final write
      throw_errno("recv");
    }
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  return parse_http_response(raw, "http " + method + " " + target);
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Fd tcp_listen(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  const sockaddr_in addr = make_addr(host, port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), 128) != 0) throw_errno("listen");
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Fd tcp_connect(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const sockaddr_in addr = make_addr(host, port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

Fd tcp_connect_start(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const sockaddr_in addr = make_addr(host, port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

Fd tcp_connect_deadline(const std::string& host, std::uint16_t port,
                        int timeout_ms) {
  const std::string what = "connect " + host + ":" + std::to_string(port);
  Fd fd = tcp_connect_start(host, port);
  const Clock::time_point deadline = deadline_after(timeout_ms);
  if (!poll_until(fd.get(), POLLOUT, deadline)) throw_deadline(what);
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    throw_errno("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    throw NetError(what + ": " + std::strerror(err));
  }
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string recv_all(int fd) {
  std::string out;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) break;  // peer reset after its final write
      throw_errno("recv");
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

std::string build_request(const std::string& host, const std::string& method,
                          const std::string& target, const std::string& body,
                          const std::string& content_type) {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: " +
                        host + "\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: " +
               (content_type.empty() ? "application/json" : content_type) +
               "\r\nContent-Length: " + std::to_string(body.size()) +
               "\r\n";
  }
  request += "\r\n";
  request += body;
  return request;
}

std::string HttpResponse::header(std::string_view name) const {
  std::size_t pos = 0;
  while (pos < headers.size()) {
    std::size_t end = headers.find("\r\n", pos);
    if (end == std::string::npos) end = headers.size();
    const std::string_view line =
        std::string_view(headers).substr(pos, end - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        equals_ignore_case(line.substr(0, colon), name)) {
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      return std::string(value);
    }
    pos = end + 2;
  }
  return {};
}

HttpResponse parse_http_response(const std::string& raw,
                                 const std::string& what) {
  HttpResponse resp;
  const std::size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) {
    throw NetError(what + ": short response");
  }
  const std::string status_line = raw.substr(0, line_end);
  trace::Fields f;
  if (trace::split_fields(status_line, ' ', f) < 2 ||
      !trace::parse_int(f[1], resp.status)) {
    throw NetError(what + ": malformed status line: " + status_line);
  }
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    throw NetError(what + ": response head never ended");
  }
  resp.headers = raw.substr(line_end + 2, head_end - line_end - 2);
  resp.body = raw.substr(head_end + 4);
  const std::string length = resp.header("Content-Length");
  std::size_t expected = 0;
  if (!length.empty() && !trace::parse_int(length, expected)) {
    throw NetError(what + ": bad Content-Length: " + length);
  }
  if (resp.body.size() < expected) {
    throw NetError(what + ": body shorter than its Content-Length");
  }
  return resp;
}

HttpResponse http_get(const std::string& host, std::uint16_t port,
                      const std::string& target) {
  return http_request(host, port, "GET", target, kNoDeadline);
}

HttpResponse http_post(const std::string& host, std::uint16_t port,
                       const std::string& target) {
  return http_request(host, port, "POST", target, kNoDeadline);
}

HttpResponse http_post(const std::string& host, std::uint16_t port,
                       const std::string& target, const std::string& body,
                       const std::string& content_type) {
  return http_request(host, port, "POST", target, kNoDeadline, body,
                      content_type);
}

HttpResponse http_get_deadline(const std::string& host, std::uint16_t port,
                               const std::string& target, int timeout_ms) {
  return http_request(host, port, "GET", target, timeout_ms);
}

HttpResponse http_post_deadline(const std::string& host, std::uint16_t port,
                                const std::string& target, int timeout_ms,
                                const std::string& body,
                                const std::string& content_type) {
  return http_request(host, port, "POST", target, timeout_ms, body,
                      content_type);
}

}  // namespace geovalid::serve
