// Per-backend forwarding connection for the cluster router.
//
// One Forwarder owns the persistent TCP ingest connection to one
// `geovalid serve` backend. Binary ingest rides a second, lazily-opened
// connection: the serve daemon negotiates text vs. binary per connection
// from the first byte, so one socket can never carry both formats.
// Per-user ordering is safe across the pair because a client connection
// speaks one format for its lifetime, so any given user's records travel
// one channel per run.
//
// Each channel has exactly one send queue: the bytes of its unsent
// records, with one Pending entry per record (text) or frame (binary).
// The backend's health controller (cluster/health.h, docs/ROBUSTNESS.md)
// alone decides what the queue does. Switched to drain, it drains
// non-blocking under the router's poll loop — the same wbuf discipline
// serve uses for HTTP responses, pointed the other way. Otherwise (a new
// connection until drain_spool(), and after every sever) it holds, and
// the held queue is the spool the router reports and budgets. sever()
// rewinds each queue to the first byte of
// its oldest record, so the record the kernel accepted half of is re-sent
// whole on the next connection: the backend dead-letters the delivered
// fragment as truncated, then applies the whole copy exactly once.
//
// A record leaves a queue only by being sent, by being discarded as
// superseded (a process restart made the client re-send authoritative),
// or by being counted dropped at close() — deliberate teardown, when the
// router is exiting and re-delivery is the clients' re-send. The queue
// sizes are the router's backpressure signal: past the high-water mark
// (or the spool budget while held) the router stops reading ingest, so a
// stalled or dead backend becomes TCP backpressure on the producers
// instead of unbounded router memory or a drop.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "serve/net.h"
#include "stream/faults.h"

namespace geovalid::cluster {

/// Address of one backend. `name` is the ring identity (stable across
/// process replacement); host/ports are the current process.
struct BackendAddr {
  std::string name;
  std::string host = "127.0.0.1";
  std::uint16_t ingest_port = 0;
  std::uint16_t http_port = 0;
};

class Forwarder {
 public:
  explicit Forwarder(BackendAddr addr) : addr_(std::move(addr)) {}

  /// Connects with `connect_timeout_ms` and leaves the socket
  /// non-blocking. On success the queues hold until drain_spool() (the
  /// controller switches once a probe settles the replay). Never throws.
  bool connect() noexcept;

  /// True while the queues drain (up or suspect — a suspect backend's
  /// connection still works; only the probe failed).
  [[nodiscard]] bool sending() const { return sending_; }
  [[nodiscard]] bool connected() const { return text_.fd.valid(); }

  [[nodiscard]] const BackendAddr& addr() const { return addr_; }
  [[nodiscard]] int fd() const { return text_.fd.get(); }
  /// The binary channel's socket; -1 until frames are sent.
  [[nodiscard]] int binary_fd() const { return binary_.fd.get(); }
  /// Unsent bytes across both queues while they drain (the high-water
  /// backpressure signal); 0 while they hold.
  [[nodiscard]] std::size_t buffered() const {
    return sending() ? queued_bytes() : 0;
  }
  [[nodiscard]] bool wants_write() const {
    return sending() && text_.unsent() > 0;
  }
  [[nodiscard]] bool wants_binary_write() const {
    return sending() && binary_.fd.valid() && binary_.unsent() > 0;
  }

  // -- Spool: the queues while they hold (down or recovering) ------------

  [[nodiscard]] std::size_t spool_bytes() const {
    return sending() ? 0 : queued_bytes();
  }
  [[nodiscard]] std::uint64_t spool_records() const {
    return sending() ? 0 : text_.records + binary_.records;
  }
  /// How long the queues have held their oldest record; 0 when they
  /// drain or are empty.
  [[nodiscard]] double spool_age_seconds(
      std::chrono::steady_clock::time_point now) const;

  /// Queues one wire record (`line` without its newline; the forwarder
  /// appends the delimiter). Always succeeds — loss is not an outcome of
  /// enqueueing.
  void enqueue(std::string_view line);

  /// Queues one complete binary frame (raw bytes, no delimiter) carrying
  /// `records` records, opening the binary channel while sending. A
  /// channel that cannot open severs; always succeeds.
  void enqueue_frame(std::string_view frame, std::uint64_t records);

  /// Sends as much of both queues as the sockets accept right now. A
  /// send failure severs.
  void flush();

  /// Recovery for a backend whose process survived (same instance):
  /// switches the held queues to drain as they are. Reopens the binary
  /// channel for held frames; returns false (and re-severs, queues intact
  /// and holding) when it cannot or the connection is gone.
  bool drain_spool();

  /// Recovery for a replaced/restarted process (new instance), called
  /// while the queues hold: the queued records are superseded by the
  /// client re-send the epoch reset triggers. Returns how many records
  /// were discarded (they are *not* lost — the re-send re-delivers them;
  /// exported as cluster_spool_superseded_total).
  std::uint64_t discard_spool();

  /// Severs the connection now: closes both channels, rewinds each queue
  /// to the first byte of its oldest record, which then holds. The
  /// router calls this on peer EOF/reset and on flush-deadline expiry;
  /// flush() calls it on send failure.
  void sever();

  /// Deliberate teardown (drain EOF or router exit): closes both channels
  /// and counts any still-queued records as dropped — at this point
  /// nothing will re-deliver them.
  void close();

  /// Points the forwarder at a replacement process for the same ring
  /// name. Connects first: on failure nothing changes (address, connection
  /// and queues stay as they were) and it returns false. On success the
  /// records queued for the old process are superseded by the rebalance
  /// re-send, so they are discarded (discard_spool() semantics), not
  /// counted dropped.
  bool replace(BackendAddr addr) noexcept;

  /// Deterministic network-fault hooks (`--inject-net-faults`): consulted
  /// per enqueue by ring name; triggers simulate reset/drop/stall at the
  /// next flush. Not owned.
  void set_fault_injector(stream::NetFaultInjector* injector) {
    fault_injector_ = injector;
  }

  void set_connect_timeout_ms(int ms) { connect_timeout_ms_ = ms; }

  std::uint64_t dropped = 0;     ///< records lost at teardown, counted
  std::uint64_t reconnects = 0;  ///< successful connect() after a sever
  /// Records discarded because a process restart made the client re-send
  /// authoritative (discard_spool/replace) — re-delivered, not lost.
  std::uint64_t superseded = 0;

 private:
  /// One queued record group: `size` bytes, `left` of them unsent. Text
  /// queues one entry per record, the binary channel one per frame.
  struct Pending {
    std::uint32_t size = 0;
    std::uint32_t left = 0;
    std::uint32_t records = 0;
  };

  /// One connection and its send queue: `buf` from `off` on is unsent;
  /// `pending` covers every record with unsent bytes, oldest first (only
  /// the oldest can be half-sent).
  struct Channel {
    serve::Fd fd;
    std::string buf;
    std::size_t off = 0;
    std::deque<Pending> pending;
    std::uint64_t records = 0;  ///< sum of pending[].records

    [[nodiscard]] std::size_t unsent() const { return buf.size() - off; }
    /// Non-blocking send; false on a fatal socket error.
    bool send();
    /// Restarts the queue at the first byte of its oldest record.
    void rewind();
    /// Empties the queue; returns the records it held.
    std::uint64_t clear();
  };

  [[nodiscard]] std::size_t queued_bytes() const {
    return text_.unsent() + binary_.unsent();
  }
  /// Accounts one record group about to be appended to `ch.buf`.
  std::string& queue(Channel& ch, std::size_t size, std::uint64_t records);
  [[nodiscard]] serve::Fd dial(const BackendAddr& addr) const noexcept;
  bool adopt(serve::Fd fd) noexcept;
  bool open_binary() noexcept;
  void on_injected(const stream::NetFaultInjector::Triggered& t);

  BackendAddr addr_;
  Channel text_;
  Channel binary_;  ///< opened on the first frame sent
  bool sending_ = false;  ///< the queues drain; else they hold
  bool ever_connected_ = false;
  /// When the queues last started holding a record (spool age).
  std::chrono::steady_clock::time_point held_since_{};

  stream::NetFaultInjector* fault_injector_ = nullptr;
  bool inject_reset_ = false;
  bool inject_drop_ = false;
  std::chrono::steady_clock::time_point stall_until_{};
  int connect_timeout_ms_ = 1000;
};

}  // namespace geovalid::cluster
