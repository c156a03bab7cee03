// Thin POSIX socket layer shared by the serve event loop, the loadgen
// client and the tests.
//
// Everything here is dependency-free (plain <sys/socket.h>): RAII fd
// ownership, IPv4 listeners with ephemeral-port support (`port 0` binds,
// local_port() reports what the kernel picked — no port races in tests),
// and SIGPIPE-immune sends (MSG_NOSIGNAL everywhere; a peer that
// disconnects mid-write surfaces as EPIPE, never as a process-killing
// signal).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace geovalid::serve {

/// Socket-layer failure (bind/listen/connect/getsockname); carries the
/// errno text.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Move-only owner of a file descriptor; -1 means empty.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();
  [[nodiscard]] int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (IPv4 dotted quad; port 0 = kernel picks
/// an ephemeral port — read it back with local_port()). The returned
/// socket is non-blocking with SO_REUSEADDR set. Throws NetError.
[[nodiscard]] Fd tcp_listen(const std::string& host, std::uint16_t port);

/// The port a bound socket actually listens on (resolves `--port 0`).
[[nodiscard]] std::uint16_t local_port(int fd);

/// Blocking connect to host:port. Throws NetError.
[[nodiscard]] Fd tcp_connect(const std::string& host, std::uint16_t port);

/// Starts a non-blocking connect: the returned fd's connect is complete or
/// in flight (EINPROGRESS) — poll it for POLLOUT, then read SO_ERROR.
/// Never blocks. Throws NetError on immediate failure, including a host
/// that is not an IPv4 dotted quad.
[[nodiscard]] Fd tcp_connect_start(const std::string& host,
                                   std::uint16_t port);

/// Connect with a deadline: non-blocking connect + poll, so a blackholed
/// or unroutable peer fails in `timeout_ms` (-1: no deadline) instead of
/// the kernel's minutes-long default. The returned fd is left
/// non-blocking. Throws NetError; the timeout message contains
/// "deadline".
[[nodiscard]] Fd tcp_connect_deadline(const std::string& host,
                                      std::uint16_t port, int timeout_ms);

/// Marks `fd` non-blocking. Throws NetError.
void set_nonblocking(int fd);

/// Blocking full-buffer send with MSG_NOSIGNAL; returns false when the
/// peer is gone (EPIPE / ECONNRESET), throws NetError on anything else.
bool send_all(int fd, std::string_view data);

/// Reads until EOF (blocking). Throws NetError on socket errors.
[[nodiscard]] std::string recv_all(int fd);

/// One HTTP/1.1 request with `Connection: close`; a non-empty body is
/// framed by Content-Length with `content_type` (JSON when empty).
[[nodiscard]] std::string build_request(const std::string& host,
                                        const std::string& method,
                                        const std::string& target,
                                        const std::string& body = {},
                                        const std::string& content_type = {});

/// Minimal HTTP/1.1 client for tests, loadgen probes, the CI smoke script
/// and the router's control plane: one request, `Connection: close`,
/// whole response back.
struct HttpResponse {
  int status = 0;
  std::string headers;  ///< raw header block (CRLF-separated lines)
  std::string body;

  /// Case-insensitive single-header lookup; empty when absent.
  [[nodiscard]] std::string header(std::string_view name) const;
};

/// Parses one whole raw response (status line, header block, body).
/// Throws NetError, prefixed with `what`, when it is malformed or cut
/// short.
[[nodiscard]] HttpResponse parse_http_response(const std::string& raw,
                                               const std::string& what);

/// Blocking requests: the deadline-bounded path below with no deadline.
[[nodiscard]] HttpResponse http_get(const std::string& host,
                                    std::uint16_t port,
                                    const std::string& target);
[[nodiscard]] HttpResponse http_post(const std::string& host,
                                     std::uint16_t port,
                                     const std::string& target);

/// POST with a request body (Content-Length framed); used by the cluster
/// rebalance endpoint and its tests.
[[nodiscard]] HttpResponse http_post(const std::string& host,
                                     std::uint16_t port,
                                     const std::string& target,
                                     const std::string& body,
                                     const std::string& content_type =
                                         "application/json");

/// Deadline-bounded variants: the whole request (connect + send + full
/// response) must finish within `timeout_ms`, so a backend that accepts
/// the TCP connection but never answers surfaces as a NetError whose
/// message contains "deadline" instead of hanging the caller. The cluster
/// router's control-plane fan-out and health probes use these.
[[nodiscard]] HttpResponse http_get_deadline(const std::string& host,
                                             std::uint16_t port,
                                             const std::string& target,
                                             int timeout_ms);
[[nodiscard]] HttpResponse http_post_deadline(const std::string& host,
                                              std::uint16_t port,
                                              const std::string& target,
                                              int timeout_ms,
                                              const std::string& body = {},
                                              const std::string& content_type =
                                                  "application/json");

}  // namespace geovalid::serve
