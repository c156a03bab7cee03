// The connection core both front ends run on: serve::Server (one core per
// reactor) and cluster::Router (one core on its single thread).
//
// A ConnHub is what every loop of one front end shares: the ingest and
// HTTP listeners, the global connection cap and the open counts. A
// ConnCore is one loop's connection half. It accepts under the cap (the
// slot is reserved before accept4, so loops racing on one listener never
// overshoot) and runs the read-budget loop: first-byte wire negotiation
// (0xB1 selects binary frames for the connection's lifetime, anything
// else the text grammar; serve/wire.h), the line and frame decoders, and
// the HTTP request parse with its error reply. It dead-letters the
// half-record an EOF or the idle sweep leaves, flushes responses under
// POLLOUT, sweeps and reaps. What decoded bytes mean is its ConnSink's
// business.
//
// Idle means idle on the client's side: the clock only runs while the
// loop reads a connection and owes it no answer. Ingest connections whose
// reads are suspended (the router's backpressure pause) and callers
// waiting on a deferred answer (/admin/drain) are never swept, and time a
// loop spends working after poll() returns counts against no one.
#pragma once

#include <poll.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/http.h"
#include "serve/net.h"
#include "serve/wire.h"

namespace geovalid::obs {
class Counter;
class Gauge;
}  // namespace geovalid::obs

namespace geovalid::serve {

/// What a front end does with the bytes a core decodes.
class ConnSink {
 public:
  /// One ingest line; `truncated` marks an oversized line or the
  /// half-line an EOF or the idle sweep left (dead-letter it).
  virtual void on_line(std::string_view text, bool truncated) = 0;
  virtual void on_frame(BinaryFrameDecoder::Frame& frame) = 0;
  virtual void on_frame_error(const FrameError& error) = 0;
  /// One complete control-plane request. A deferred reply leaves the
  /// caller waiting until ConnCore::answer_deferred().
  virtual HttpReply on_request(const HttpRequest& request) = 0;

 protected:
  ~ConnSink() = default;
};

/// Metric handles a core keeps current; null means not exported. Arrays
/// index by kind ([0] ingest, [1] HTTP), `wire_bytes` by ingest format
/// ([0] text, [1] binary).
struct ConnMetrics {
  std::array<obs::Counter*, 2> accepted{};
  std::array<obs::Gauge*, 2> active{};
  std::array<obs::Counter*, 2> bytes_read{};
  std::array<obs::Counter*, 2> bytes_written{};
  std::array<obs::Counter*, 2> wire_bytes{};
  obs::Counter* idle_timeouts = nullptr;
  /// The {route, status} request counter family; empty = not exported.
  std::string_view requests_family;
  std::string_view requests_help;

  /// One {route, status} counter of requests_family (registered on use).
  [[nodiscard]] obs::Counter& requests(Route route, int status) const;
};

/// The listener and connection settings both front ends take.
struct ConnConfig {
  std::string host = "127.0.0.1";
  std::uint16_t ingest_port = 0;  ///< 0 = ephemeral (read back after start)
  std::uint16_t http_port = 0;    ///< 0 = ephemeral
  std::size_t max_connections = 1024;  ///< combined cap across both ports
  double idle_timeout_s = 60.0;        ///< <= 0 disables the idle sweep
  std::size_t max_line_bytes = kMaxLineBytes;
};

/// State shared by every loop of one front end.
struct ConnHub {
  ConnConfig config;
  ConnMetrics metrics;

  Fd ingest_listener;
  Fd http_listener;
  std::uint16_t ingest_port = 0;  ///< bound port (resolves port 0)
  std::uint16_t http_port = 0;

  std::atomic<std::size_t> open{0};  ///< slots reserved under the cap
  std::atomic<std::size_t> open_ingest{0};
  std::atomic<std::size_t> open_http{0};

  /// Binds both listeners as configured. Throws NetError.
  void listen();
  [[nodiscard]] bool at_cap() const {
    return open.load(std::memory_order_relaxed) >= config.max_connections;
  }
};

class ConnCore {
 public:
  /// Poll-set tags of the listeners. Connection tags are their indices,
  /// counting up from 0; a front end tags its own descriptors in between.
  static constexpr std::size_t kIngestListenerTag = SIZE_MAX;
  static constexpr std::size_t kHttpListenerTag = SIZE_MAX - 1;

  /// `halt`, when set, stops decoding mid-read (serve's crash hook).
  ConnCore(ConnHub& hub, ConnSink& sink,
           const std::atomic<bool>* halt = nullptr);
  ~ConnCore();

  /// Appends the listeners (none at the cap; ingest only when
  /// `accept_ingest`, HTTP only when `accept_http`) and every connection.
  /// Ingest connections are read only while `read_ingest`.
  void add_to_poll(std::vector<pollfd>& fds, std::vector<std::size_t>& tags,
                   bool accept_ingest, bool accept_http, bool read_ingest);
  /// Services one ready poll entry; false when the tag is not the core's.
  bool service(std::size_t tag, short revents);
  /// The idle sweep, measured at `polled_at` (when poll() returned), then
  /// the reap of dead connections.
  void sweep_and_reap(std::chrono::steady_clock::time_point polled_at);

  /// Answers every caller a deferred reply left waiting.
  void answer_deferred(const HttpReply& reply);
  /// True while a deferred caller waits or a response is unflushed.
  [[nodiscard]] bool answering() const;
  /// Closes every ingest connection at the next reap.
  void sever_ingest();
  /// Drops every connection and its cap slot (teardown).
  void clear();
  [[nodiscard]] bool empty() const { return conns_.empty(); }

  [[nodiscard]] std::uint64_t accepted() const { return accepted_; }
  [[nodiscard]] std::uint64_t requests() const { return requests_; }

  obs::Counter* loop_accepted = nullptr;  ///< this loop's accepts

 private:
  struct Conn;

  void accept_ready(bool is_http);
  void read(Conn& c);
  void handle_request(Conn& c);
  void finish_ingest(Conn& c);
  void respond(Conn& c, const HttpReply& reply);
  void flush(Conn& c);
  void count(Route route, int status) const;
  void release(const Conn& c);
  [[nodiscard]] bool halted() const {
    return halt_ != nullptr && halt_->load(std::memory_order_relaxed);
  }

  ConnHub& hub_;
  ConnSink& sink_;
  const std::atomic<bool>* halt_;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool reading_ingest_ = true;
  std::uint64_t accepted_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace geovalid::serve
