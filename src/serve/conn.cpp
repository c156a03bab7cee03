#include "serve/conn.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <utility>
#include <variant>

#include "obs/metrics.h"

namespace geovalid::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Per-connection read budget per loop iteration, so one firehose client
/// cannot starve the others between polls.
constexpr std::size_t kReadBudgetBytes = 256 * 1024;

template <typename Metric>
void add(Metric* metric, std::uint64_t n) {
  if (metric != nullptr) metric->inc(n);
}

}  // namespace

/// One accepted socket, either protocol. Response bytes queue in `wbuf`
/// and drip out under POLLOUT, so a slow reader never blocks its loop.
struct ConnCore::Conn {
  enum class WireMode : std::uint8_t { kUndecided, kText, kBinary };

  Conn(Fd socket, bool http, std::size_t max_line_bytes)
      : fd(std::move(socket)), is_http(http), decoder(max_line_bytes) {}

  Fd fd;
  bool is_http = false;
  bool dead = false;
  bool close_after_write = false;
  bool awaiting_drain = false;  ///< a deferred request waits on an answer
  WireMode mode = WireMode::kUndecided;
  LineDecoder decoder;
  BinaryFrameDecoder frame_decoder;
  HttpRequestParser parser;
  std::string wbuf;
  std::size_t woff = 0;
  Clock::time_point last_activity = Clock::now();
};

obs::Counter& ConnMetrics::requests(Route route, int status) const {
  return obs::registry().counter(
      requests_family, requests_help,
      {{"route", std::string(route_label(route))},
       {"status", std::to_string(status)}});
}

void ConnHub::listen() {
  ingest_listener = tcp_listen(config.host, config.ingest_port);
  ingest_port = local_port(ingest_listener.get());
  http_listener = tcp_listen(config.host, config.http_port);
  http_port = local_port(http_listener.get());
}

ConnCore::ConnCore(ConnHub& hub, ConnSink& sink,
                   const std::atomic<bool>* halt)
    : hub_(hub), sink_(sink), halt_(halt) {}

ConnCore::~ConnCore() = default;

void ConnCore::add_to_poll(std::vector<pollfd>& fds,
                           std::vector<std::size_t>& tags, bool accept_ingest,
                           bool accept_http, bool read_ingest) {
  reading_ingest_ = read_ingest;
  if (!hub_.at_cap()) {
    if (accept_ingest) {
      fds.push_back({hub_.ingest_listener.get(), POLLIN, 0});
      tags.push_back(kIngestListenerTag);
    }
    if (accept_http) {
      fds.push_back({hub_.http_listener.get(), POLLIN, 0});
      tags.push_back(kHttpListenerTag);
    }
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const Conn& c = *conns_[i];
    short events = (c.is_http || read_ingest) ? POLLIN : 0;
    if (c.woff < c.wbuf.size()) events |= POLLOUT;
    if (events == 0) continue;  // suspended ingest: its bytes stay queued
    fds.push_back({c.fd.get(), events, 0});
    tags.push_back(i);
  }
}

bool ConnCore::service(std::size_t tag, short revents) {
  if (tag == kIngestListenerTag || tag == kHttpListenerTag) {
    accept_ready(tag == kHttpListenerTag);
    return true;
  }
  if (tag >= conns_.size()) return false;
  Conn& c = *conns_[tag];
  if (c.dead) return true;
  if ((revents & (POLLERR | POLLNVAL)) != 0) {
    c.dead = true;
    return true;
  }
  if ((revents & POLLOUT) != 0) flush(c);
  if (!c.dead && (revents & (POLLIN | POLLHUP)) != 0) read(c);
  return true;
}

void ConnCore::accept_ready(bool is_http) {
  const Fd& listener = is_http ? hub_.http_listener : hub_.ingest_listener;
  // This is the hub's only accepting loop; the others only free slots.
  while (!hub_.at_cap()) {
    int cfd = -1;
    do {
      cfd = ::accept4(listener.get(), nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC);
    } while (cfd < 0 && errno == EINTR);
    if (cfd < 0) {
      if (errno == ECONNABORTED) continue;
      return;  // EAGAIN, or a transient kernel error
    }
    hub_.open.fetch_add(1, std::memory_order_relaxed);
    (is_http ? hub_.open_http : hub_.open_ingest)
        .fetch_add(1, std::memory_order_relaxed);
    ++accepted_;
    add(hub_.metrics.accepted[is_http], 1);
    Fd socket(cfd);
    if (is_http || !sink_.place(socket)) keep(std::move(socket), is_http);
  }
}

void ConnCore::adopt(Fd socket) { keep(std::move(socket), false); }

void ConnCore::keep(Fd socket, bool is_http) {
  conns_.push_back(std::make_unique<Conn>(std::move(socket), is_http,
                                          hub_.config.max_line_bytes));
  add(loop_accepted, 1);
}

void ConnCore::read(Conn& c) {
  char buf[65536];
  std::size_t budget = kReadBudgetBytes;
  while (budget > 0 && !c.dead && !halted()) {
    const ssize_t n =
        ::recv(c.fd.get(), buf, std::min(sizeof(buf), budget), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) c.dead = true;
      return;
    }
    if (n == 0) {  // orderly EOF
      if (!c.is_http) finish_ingest(c);
      c.dead = true;
      return;
    }
    budget -= static_cast<std::size_t>(n);
    const std::string_view chunk(buf, static_cast<std::size_t>(n));
    add(hub_.metrics.bytes_read[c.is_http], chunk.size());
    if (c.is_http) {
      // One request per connection: once it is dispatched, later bytes
      // are read only so EOF is still noticed.
      if (c.parser.finished()) continue;
      c.parser.consume(chunk);
      if (c.parser.finished()) {
        handle_request(c);
        c.last_activity = Clock::now();
        return;
      }
    } else {
      if (c.mode == Conn::WireMode::kUndecided) {
        c.mode = static_cast<unsigned char>(chunk.front()) == kFrameMagic0
                     ? Conn::WireMode::kBinary
                     : Conn::WireMode::kText;
      }
      const bool binary = c.mode == Conn::WireMode::kBinary;
      add(hub_.metrics.wire_bytes[binary], chunk.size());
      if (binary) {
        c.frame_decoder.feed(chunk);
        while (!halted()) {
          auto result = c.frame_decoder.next();
          if (!result) break;
          if (auto* frame = std::get_if<BinaryFrameDecoder::Frame>(&*result)) {
            sink_.on_frame(*frame);
          } else {
            sink_.on_frame_error(std::get<FrameError>(*result));
          }
        }
      } else {
        c.decoder.feed(chunk);
        while (!halted()) {
          const auto line = c.decoder.next();
          if (!line) break;
          sink_.on_line(line->text, line->truncated);
        }
      }
    }
    // Stamped after the bytes are handled: time the sink spends blocked
    // (engine or forwarder backpressure) is the server's, not the
    // client's.
    c.last_activity = Clock::now();
  }
}

void ConnCore::handle_request(Conn& c) {
  ++requests_;
  const HttpReply reply =
      c.parser.state() == HttpRequestParser::State::kError
          ? HttpReply(Route::kOther, c.parser.error_status(),
                      c.parser.error() + "\n", "text/plain")
          : sink_.on_request(c.parser.request());
  if (reply.deferred) {
    // Counted as accepted now; answer_deferred() recounts a failure.
    count(reply.route, 200);
    c.awaiting_drain = true;
    return;
  }
  count(reply.route, reply.status);
  respond(c, reply);
}

void ConnCore::count(Route route, int status) const {
  if (!hub_.metrics.requests_family.empty()) {
    hub_.metrics.requests(route, status).inc();
  }
}

void ConnCore::finish_ingest(Conn& c) {
  // An abrupt mid-record (or mid-frame) end: the incomplete tail is
  // dead-lettered, never half-decoded into the engine.
  if (c.mode == Conn::WireMode::kBinary) {
    if (const auto error = c.frame_decoder.finish()) {
      sink_.on_frame_error(*error);
    }
  } else if (const auto fragment = c.decoder.finish()) {
    sink_.on_line(fragment->text, true);
  }
}

void ConnCore::respond(Conn& c, const HttpReply& reply) {
  c.wbuf += http_response(reply.status, reply.content_type, reply.body,
                          reply.headers);
  c.close_after_write = true;
  flush(c);
}

void ConnCore::flush(Conn& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t n = ::send(c.fd.get(), c.wbuf.data() + c.woff,
                             c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      c.dead = true;  // EPIPE / reset: the client is gone
      return;
    }
    c.woff += static_cast<std::size_t>(n);
    add(hub_.metrics.bytes_written[c.is_http], static_cast<std::uint64_t>(n));
  }
  c.wbuf.clear();
  c.woff = 0;
  if (c.close_after_write) c.dead = true;
}

void ConnCore::answer_deferred(const HttpReply& reply) {
  for (const auto& c : conns_) {
    if (c->dead || !c->awaiting_drain) continue;
    c->awaiting_drain = false;
    if (reply.status != 200) count(reply.route, reply.status);
    respond(*c, reply);
  }
}

bool ConnCore::answering() const {
  return std::any_of(conns_.begin(), conns_.end(), [](const auto& c) {
    return !c->dead && (c->awaiting_drain || !c->wbuf.empty());
  });
}

void ConnCore::sever_ingest() {
  for (const auto& c : conns_) {
    if (!c->is_http) c->dead = true;
  }
}

std::size_t ConnCore::sweep_and_reap(Clock::time_point polled_at) {
  if (hub_.config.idle_timeout_s > 0) {
    const auto timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(hub_.config.idle_timeout_s));
    for (const auto& c : conns_) {
      if (c->dead) continue;
      if (c->awaiting_drain || (!c->is_http && !reading_ingest_)) {
        // Waiting on us, not on the client: the clock restarts once the
        // loop reads the connection again.
        c->last_activity = polled_at;
        continue;
      }
      if (polled_at - c->last_activity <= timeout) continue;
      // Whatever half-record the idle client left behind is dead-lettered,
      // exactly as if it had disconnected mid-record.
      if (!c->is_http) finish_ingest(*c);
      c->dead = true;
      add(hub_.metrics.idle_timeouts, 1);
    }
  }
  // Reap after the revents pass, so indices stay stable while handlers run.
  std::size_t ingest_reaped = 0;
  for (const auto& c : conns_) {
    if (!c->dead) continue;
    release(*c);
    if (!c->is_http) ++ingest_reaped;
  }
  std::erase_if(conns_, [](const std::unique_ptr<Conn>& c) { return c->dead; });
  // Every loop republishes the shared counts, so no stale write survives
  // a tick.
  for (const bool http : {false, true}) {
    if (obs::Gauge* g = hub_.metrics.active[http]) {
      g->set(static_cast<std::int64_t>(
          (http ? hub_.open_http : hub_.open_ingest)
              .load(std::memory_order_relaxed)));
    }
  }
  return ingest_reaped;
}

void ConnCore::release(const Conn& c) {
  hub_.open.fetch_sub(1, std::memory_order_relaxed);
  (c.is_http ? hub_.open_http : hub_.open_ingest)
      .fetch_sub(1, std::memory_order_relaxed);
}

void ConnCore::clear() {
  for (const auto& c : conns_) release(*c);
  conns_.clear();
}

}  // namespace geovalid::serve
