#include "serve/server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/parallel.h"
#include "match/classifier.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "stream/checkpoint.h"
#include "stream/snapshot_io.h"

namespace geovalid::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Poll tick: the idle sweep / checkpoint / stop-flag granularity.
constexpr int kPollTimeoutMs = 100;

/// Poll-set tag of a reactor's wake eventfd.
constexpr std::size_t kWakeTag = ConnCore::kHttpListenerTag - 1;

std::uint64_t ns_since(Clock::time_point start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

std::string drained_json(std::uint64_t cursor) {
  return "{\"status\":\"drained\",\"cursor\":" + std::to_string(cursor) +
         "}";
}

void append_partition_json(std::string& out, const match::Partition& p) {
  out += "{\"honest\":";
  append_number(out, static_cast<std::uint64_t>(p.honest));
  out += ",\"extraneous\":";
  append_number(out, static_cast<std::uint64_t>(p.extraneous));
  out += ",\"missing\":";
  append_number(out, static_cast<std::uint64_t>(p.missing));
  out += ",\"checkins\":";
  append_number(out, static_cast<std::uint64_t>(p.checkins));
  out += ",\"visits\":";
  append_number(out, static_cast<std::uint64_t>(p.visits));
  out += ",\"by_class\":{";
  for (std::size_t c = 0; c < match::kCheckinClassCount; ++c) {
    if (c > 0) out += ',';
    out += '"';
    out += match::to_string(static_cast<match::CheckinClass>(c));
    out += "\":";
    append_number(out, static_cast<std::uint64_t>(p.by_class[c]));
  }
  out += "}}";
}

std::string user_verdicts_json(const stream::UserVerdicts& v) {
  std::string out = "{\"user\":";
  append_number(out, static_cast<std::uint64_t>(v.id));
  out += ",\"partition\":";
  append_partition_json(out, v.partition);
  out += ",\"extraneous_ratio\":";
  append_number(out, v.extraneous_ratio());
  out += ",\"interarrival\":{\"gaps\":";
  append_number(out, v.gap_count);
  out += ",\"mean_min\":";
  append_number(out, v.gap_mean_min);
  out += ",\"stddev_min\":";
  append_number(out, v.gap_stddev_min());
  out += ",\"burstiness\":";
  append_number(out, v.burstiness());
  out += "}}";
  return out;
}

}  // namespace

/// Cached serve_* metric handles (null when ServeConfig::metrics is off);
/// the connection families live in the hub's ConnMetrics.
struct Server::Metrics {
  obs::Counter* records_applied = nullptr;
  obs::Counter* records_replayed = nullptr;
  obs::Counter* records_malformed = nullptr;
  /// The engine counts already in records_applied / records_replayed.
  std::uint64_t applied_seen = 0;
  std::uint64_t replayed_seen = 0;
  obs::Gauge* ingest_lag = nullptr;
  obs::Counter* accept_backpressure = nullptr;
  obs::Counter* wire_frames = nullptr;       ///< serve_wire_frames_total
  obs::Histogram* wire_batch_records = nullptr;
  /// serve_wire_malformed_frames_total{reason=...}, indexed by
  /// FrameErrorKind — the vocabulary is fixed and pre-registered.
  std::array<obs::Counter*, kFrameErrorKindCount> wire_malformed{};
};

/// One event-loop thread's private world: its connection core, its engine
/// producer handle, and its serve_reactor_* metric handles. Other reactors
/// touch only its inbox, its wake eventfd and its ingest count. The
/// reactor is its core's sink.
struct Server::Reactor final : ConnSink {
  Reactor(Server& s, std::size_t i)
      : server(s),
        index(i),
        producer(*s.engine_),
        core(s.hub_, *this, &s.crash_pending_),
        wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (!wake_fd.valid()) {
      throw NetError(std::string("eventfd: ") + std::strerror(errno));
    }
  }

  void on_line(std::string_view text, bool truncated) override {
    if (text.empty() && !truncated) return;  // blank keepalive line
    const WireResult result =
        truncated ? WireResult(WireError{}) : parse_wire_record(text);
    if (const auto* e = std::get_if<stream::Event>(&result)) {
      server.apply(*this, {e, 1});
      return;
    }
    server.count_malformed();
    server.quarantine_->record_raw(text,
                                   stream::QuarantineReason::kMalformedLine);
  }
  void on_frame(BinaryFrameDecoder::Frame& frame) override {
    if (server.metrics_) {
      server.metrics_->wire_frames->inc();
      server.metrics_->wire_batch_records->observe(frame.events.size());
    }
    server.apply(*this, frame.events);
  }
  void on_frame_error(const FrameError& error) override {
    server.process_frame_error(error);
  }
  HttpReply on_request(const HttpRequest& request) override {
    return server.route_request(*this, request);
  }
  bool place(Fd& socket) override { return server.deal(socket); }

  /// Ends this reactor's poll() wait.
  void wake() const {
    const std::uint64_t one = 1;
    // Fails only on a saturated counter: the loop is already due to wake.
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd.get(), &one, sizeof(one));
  }
  /// On a wake: adopt every socket dealt to this reactor. The eventfd is
  /// reset first, so a socket dealt meanwhile wakes the loop again.
  void adopt_dealt() {
    std::uint64_t wakes = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(wake_fd.get(), &wakes, sizeof(wakes));
    std::vector<Fd> dealt;
    {
      std::lock_guard<std::mutex> lock(inbox_mu);
      dealt.swap(inbox);
    }
    for (Fd& socket : dealt) core.adopt(std::move(socket));
  }

  Server& server;
  std::size_t index = 0;
  stream::StreamEngine::Producer producer;
  ConnCore core;
  /// Written to wake the loop: a dealt socket, a raised pause gate, or
  /// (reactor 0) a slot freed at the cap.
  Fd wake_fd;
  std::mutex inbox_mu;
  std::vector<Fd> inbox;  ///< dealt by reactor 0, not yet adopted
  /// Open ingest connections dealt here, inbox ones included.
  std::atomic<std::size_t> ingest_conns{0};

  obs::Counter* m_events = nullptr;       ///< serve_reactor_events_total
  obs::Counter* m_stalls = nullptr;       ///< serve_reactor_stalls_total
  obs::Histogram* m_loop_ns = nullptr;    ///< serve_reactor_loop_ns
  std::uint64_t stalls_synced = 0;  ///< producer stalls already mirrored
};

Server::Server(ServeConfig config) : config_(std::move(config)) {
  config_.reactors = core::resolve_threads(config_.reactors);
  // Distinct across processes (pid) and across Servers within one process
  // (counter) — in-process cluster tests restart "backends" without
  // forking, and a restart must present a new instance.
  static std::atomic<std::uint64_t> instance_counter{0};
  instance_id_ =
      std::to_string(static_cast<std::uint64_t>(::getpid())) + "." +
      std::to_string(instance_counter.fetch_add(1, std::memory_order_relaxed));
  quarantine_.emplace(config_.quarantine);
  // A network feed is never trusted: the quarantine path is always on, so
  // malformed payloads degrade to dead letters instead of poisoning the
  // engine (ISSUE: "typed rejection into the quarantine path").
  config_.engine.quarantine = &*quarantine_;
  if (!config_.model_path.empty()) {
    model_.emplace(score::load_model(config_.model_path));
    config_.engine.model = &*model_;
  }
  engine_.emplace(config_.engine);
  hub_.config = config_;
  reactors_.reserve(config_.reactors);
  for (std::size_t i = 0; i < config_.reactors; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(*this, i));
  }
  if (config_.metrics) register_metrics();
}

Server::~Server() = default;

void Server::register_metrics() {
  obs::Registry& r = obs::registry();
  metrics_ = std::make_unique<Metrics>();
  Metrics& m = *metrics_;
  ConnMetrics& c = hub_.metrics;
  static constexpr std::string_view kConnHelp =
      "Connections accepted, by listener kind";
  static constexpr std::string_view kActiveHelp =
      "Currently open connections, by listener kind";
  static constexpr std::string_view kReadHelp =
      "Bytes received from clients, by listener kind";
  static constexpr std::string_view kWriteHelp =
      "Bytes sent to clients, by listener kind";
  for (const bool http : {false, true}) {
    const obs::Labels kind{{"kind", http ? "http" : "ingest"}};
    c.accepted[http] = &r.counter("serve_connections_total", kConnHelp, kind);
    c.active[http] = &r.gauge("serve_connections_active", kActiveHelp, kind);
    c.bytes_read[http] = &r.counter("serve_bytes_read_total", kReadHelp, kind);
    c.bytes_written[http] =
        &r.counter("serve_bytes_written_total", kWriteHelp, kind);
  }
  static constexpr std::string_view kRecordHelp =
      "Ingest records, by outcome: applied (processed by the engine, "
      "quarantined there included), replayed (checkpoint-covered prefix "
      "after a resume), malformed (dead-lettered)";
  m.records_applied = &r.counter("serve_ingest_records_total", kRecordHelp,
                                 {{"result", "applied"}});
  m.records_replayed = &r.counter("serve_ingest_records_total", kRecordHelp,
                                  {{"result", "replayed"}});
  m.records_malformed = &r.counter("serve_ingest_records_total", kRecordHelp,
                                   {{"result", "malformed"}});
  m.ingest_lag = &r.gauge(
      "serve_ingest_lag_events",
      "Events accepted by the server but not yet processed by the engine "
      "workers (in-flight depth)");
  c.idle_timeouts = &r.counter(
      "serve_idle_timeouts_total",
      "Connections closed by the idle sweep");
  m.accept_backpressure = &r.counter(
      "serve_accept_backpressure_total",
      "Times the listeners left the poll set because the connection cap "
      "was reached (new clients wait in the kernel backlog)");
  m.wire_frames = &r.counter(
      "serve_wire_frames_total",
      "Binary wire frames decoded and applied to the ingest path");
  static constexpr std::string_view kWireBytesHelp =
      "Ingest bytes received, by negotiated wire format";
  c.wire_bytes[0] = &r.counter("serve_wire_bytes_total", kWireBytesHelp,
                               {{"format", "text"}});
  c.wire_bytes[1] = &r.counter("serve_wire_bytes_total", kWireBytesHelp,
                               {{"format", "binary"}});
  m.wire_batch_records = &r.histogram(
      "serve_wire_batch_records",
      "Records per decoded binary frame (columnar batch size)");
  // Pre-register every frame rejection reason, mirroring the quarantine
  // counters: absence means "no binary ingest", not "no rejects".
  for (std::size_t i = 0; i < kFrameErrorKindCount; ++i) {
    m.wire_malformed[i] = &r.counter(
        "serve_wire_malformed_frames_total",
        "Binary wire frames rejected and dead-lettered, by reason",
        {{"reason",
          std::string(to_string(static_cast<FrameErrorKind>(i)))}});
  }
  // Pre-register the fixed route vocabulary with the success status, so a
  // scrape (and the obs-docs test) sees the family before any request.
  // Serve has no rebalance hook: /admin/backends/{name} is not its label.
  c.requests_family = "serve_http_requests_total";
  c.requests_help =
      "Control-plane requests served, by route and response status";
  for (std::size_t i = 0; i < kRouteCount; ++i) {
    const auto route = static_cast<Route>(i);
    if (route != Route::kBackends) (void)c.requests(route, 200);
  }
  // Per-reactor families, registered for every reactor up front so a
  // scrape always sees the full {reactor="0".."N-1"} vocabulary.
  for (auto& reactor : reactors_) {
    const obs::Labels label{{"reactor", std::to_string(reactor->index)}};
    reactor->m_events = &r.counter(
        "serve_reactor_events_total",
        "Well-formed wire records decoded, per reactor thread", label);
    reactor->core.loop_accepted = &r.counter(
        "serve_reactor_connections_total",
        "Connections adopted, per reactor thread (reactor 0 accepts them "
        "all and deals ingest to the least-loaded reactor)", label);
    reactor->m_stalls = &r.counter(
        "serve_reactor_stalls_total",
        "Times this reactor's engine producer found a shard mailbox full "
        "and had to wait (engine backpressure, per reactor)", label);
    reactor->m_loop_ns = &r.histogram(
        "serve_reactor_loop_ns",
        "One event-loop iteration's service time after poll() returns "
        "(nanoseconds), per reactor", label);
  }
}

void Server::start() {
  if (started_) throw std::logic_error("Server::start called twice");
  if (config_.resume && !config_.checkpoint_dir.empty()) {
    restore_from_checkpoint();
  }
  hub_.listen();
  started_ = true;
}

void Server::restore_from_checkpoint() {
  const auto restored = stream::restore_latest(config_.checkpoint_dir);
  if (!restored) return;
  // Serve payload: per-user received-record coverage, then the engine
  // payload as an opaque blob.
  stream::SnapshotReader r(restored->payload);
  engine_->restore_coverage(stream::CoverageLedger::read(r));
  const std::string engine_payload = r.blob();
  if (!r.exhausted()) {
    throw stream::SnapshotError(
        "snapshot: trailing bytes after serve state");
  }
  engine_->load_state(engine_payload);
  restored_cursor_ = restored->cursor;
}

bool Server::deal(Fd& socket) {
  // The first least-loaded reactor: ties go to the lowest index.
  Reactor& r = **std::min_element(
      reactors_.begin(), reactors_.end(), [](const auto& a, const auto& b) {
        return a->ingest_conns.load(std::memory_order_relaxed) <
               b->ingest_conns.load(std::memory_order_relaxed);
      });
  r.ingest_conns.fetch_add(1, std::memory_order_relaxed);
  if (r.index == 0) return false;
  {
    std::lock_guard<std::mutex> lock(r.inbox_mu);
    r.inbox.push_back(std::move(socket));
  }
  r.wake();
  return true;
}

std::filesystem::path Server::write_checkpoint_now() {
  // Coverage per user: everything arrived this lifetime, or restored from
  // the previous one — whichever is further (a user may not have re-sent
  // its full prefix yet when a checkpoint fires mid-replay).
  stream::SnapshotWriter w;
  stream::CoverageLedger::write(w, engine_->coverage());  // drains
  w.blob(engine_->save_state());  // quarantine flushed with the drain
  std::filesystem::path path = stream::write_checkpoint(
      config_.checkpoint_dir, {cursor(), w.take()});
  parsed_at_checkpoint_ = records_parsed_.load(std::memory_order_relaxed);
  return path;
}

std::uint64_t Server::cursor() const {
  return restored_cursor_ + engine_->events_processed();
}

void Server::count_malformed() {
  records_malformed_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_) metrics_->records_malformed->inc();
}

void Server::apply(Reactor& r, std::span<const stream::Event> events) {
  const std::uint64_t count = events.size();
  const std::uint64_t parsed =
      records_parsed_.fetch_add(count, std::memory_order_relaxed) + count;
  if (r.m_events != nullptr) r.m_events->inc(count);
  // One handoff. The shard that owns each record's user decides it: it
  // skips a checkpoint-covered prefix re-sent after a resume (what turns
  // the clients' at-least-once redelivery into exactly-once application),
  // quarantines a bad payload or order, and applies the rest. stage_batch
  // may block on engine backpressure — that is the design: TCP receive
  // buffers fill and the feed slows to what the shards sustain.
  r.producer.stage_batch(events);
  if (config_.crash_after_records != 0 &&
      parsed >= config_.crash_after_records) {
    crash_pending_.store(true, std::memory_order_relaxed);
  }
}

void Server::process_frame_error(const FrameError& error) {
  // One rejected frame counts as one malformed ingest record (its claimed
  // record count is exactly what cannot be trusted).
  count_malformed();
  if (metrics_) {
    metrics_->wire_malformed[static_cast<std::size_t>(error.kind)]->inc();
  }
  // The detail is already printable (reason + byte count + hex prefix) —
  // raw frame bytes never reach the dead-letter CSV.
  quarantine_->record_raw(error.detail,
                          stream::QuarantineReason::kMalformedFrame);
}

HttpReply Server::route_request(Reactor& r, const HttpRequest& req) {
  RouteMatch m = match_route(req);
  if (m.route == Route::kBackends) m = RouteMatch{};  // the router's hook
  if (!m.method_ok) return method_not_allowed(m.route);
  const auto json = [&m](int status, std::string body) {
    return HttpReply(m.route, status, std::move(body));
  };
  // Every quiesced read answers this when the crash hook fired meanwhile:
  // the connection dies with the daemon.
  const auto shutting_down = [&] {
    return json(503, "{\"error\":\"shutting down\"}");
  };
  const auto no_model = [&] {
    return json(409, "{\"error\":\"serving without a model\"}");
  };
  switch (m.route) {
    case Route::kHealthz:
      return {m.route, 200, "ok\n", "text/plain"};
    case Route::kReadyz: {
      // Readiness, as distinct from /healthz liveness: a draining daemon
      // is alive but must not receive new traffic, which is what a router
      // or orchestrator keys on. The other not-ready phase — checkpoint
      // restore — runs synchronously in start() before the listeners
      // bind, so it is correctly reported by connection refusal. The
      // instance header travels on both outcomes so a router probe can
      // learn the nonce even while the daemon drains.
      HttpReply reply = drain_requested_.load(std::memory_order_relaxed)
                            ? json(503, "{\"error\":\"draining\"}")
                            : HttpReply(m.route, 200, "ready\n", "text/plain");
      reply.headers.emplace_back("Geovalid-Instance", instance_id_);
      return reply;
    }
    case Route::kMetrics:
      sync_ingest_metrics();
      return {m.route, 200, obs::to_prometheus(obs::registry()),
              std::string(obs::kPrometheusContentType)};
    case Route::kSummary: {
      // summary_json() quiesces the engine (drain() inside
      // all_user_verdicts()), which requires the single-producer window
      // the pause gate provides.
      std::string body;
      if (!run_quiesced(r, [&] { body = summary_json(); })) {
        return shutting_down();
      }
      return json(200, std::move(body));
    }
    case Route::kVerdicts: {
      const std::optional<trace::UserId> id = parse_user_id(m.arg);
      if (!id) return json(400, "{\"error\":\"bad user id\"}");
      std::optional<stream::UserVerdicts> v;
      if (!run_quiesced(r, [&] { v = engine_->user_verdicts(*id); })) {
        return shutting_down();
      }
      return v ? json(200, user_verdicts_json(*v))
               : json(404, "{\"error\":\"unknown user\"}");
    }
    case Route::kScore: {
      const std::optional<trace::UserId> id = parse_user_id(m.arg);
      if (!engine_->scoring_enabled()) return no_model();
      if (!id) return json(400, "{\"error\":\"bad user id\"}");
      std::optional<score::UserScoreSnapshot> snap;
      if (!run_quiesced(r, [&] { snap = engine_->user_score(*id); })) {
        return shutting_down();
      }
      if (!snap) return json(404, "{\"error\":\"unknown user\"}");
      std::string body = "{\"user\":" + std::to_string(*id) + ",\"score\":";
      append_number(body, snap->score);
      body += ",\"live_score\":";
      append_number(body, snap->live_score);
      body += ",\"checkins\":";
      append_number(body, snap->checkins);
      return json(200, body + "}");
    }
    case Route::kSuspects: {
      const std::optional<std::size_t> k = parse_suspects_k(req.target);
      if (!engine_->scoring_enabled()) return no_model();
      if (!k) return json(400, "{\"error\":\"bad k\"}");
      std::vector<score::SuspectEntry> suspects;
      if (!run_quiesced(r, [&] { suspects = engine_->top_suspects(*k); })) {
        return shutting_down();
      }
      std::string body = "{\"k\":" + std::to_string(*k) + ",\"suspects\":[";
      for (const score::SuspectEntry& s : suspects) {
        if (&s != suspects.data()) body += ",";
        body += "{\"user\":" + std::to_string(s.user) + ",\"score\":";
        append_number(body, s.score);
        body += ",\"checkins\":";
        append_number(body, s.checkins);
        body += "}";
      }
      return json(200, body + "]}");
    }
    case Route::kCheckpoint: {
      if (config_.checkpoint_dir.empty()) {
        return json(409,
                    "{\"error\":\"serving without a checkpoint directory\"}");
      }
      std::filesystem::path path;
      if (!run_quiesced(r, [&] { path = write_checkpoint_now(); })) {
        return shutting_down();
      }
      return json(200, "{\"cursor\":" + std::to_string(cursor()) +
                           ",\"path\":\"" + path.string() + "\"}");
    }
    case Route::kDrain: {
      if (drain_done_.load(std::memory_order_relaxed)) {
        // A drain already completed; answer straight away (the loop is
        // about to exit).
        return json(200, drained_json(cursor()));
      }
      // Deferred response: every reactor stops accepting ingest, finishes
      // reading its connected streams to EOF, then reactor 0 quiesces all
      // reactors, drains the engine, writes a final checkpoint and only
      // then answers — so a 200 here means "all records you sent are in
      // the verdicts". The loop exits once the answer is flushed.
      drain_requested_.store(true, std::memory_order_relaxed);
      HttpReply reply(m.route, 200, {});
      reply.deferred = true;
      return reply;
    }
    case Route::kBackends:
    case Route::kOther:
      break;
  }
  return {};
}

void Server::park_if_paused(Reactor& r) {
  if (!pause_flag_.load(std::memory_order_acquire)) return;
  // Hand every staged event to the shard mailboxes before reporting
  // parked: once reactor 0 proceeds, the engine must see a complete,
  // single-producer view of everything this reactor has read.
  r.producer.flush();
  std::unique_lock<std::mutex> lock(gate_mu_);
  if (!pause_requested_) return;  // raced with the release
  ++parked_;
  gate_cv_.notify_all();
  gate_cv_.wait(lock, [&] { return !pause_requested_; });
  --parked_;
}

bool Server::run_quiesced(Reactor& r0, const std::function<void()>& op) {
  if (reactors_.size() > 1) {
    pause_flag_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(gate_mu_);
    pause_requested_ = true;
    // Woken only once the request is up: a reactor woken before it could
    // see the flag, find no request and sleep a whole poll tick.
    for (std::size_t i = 1; i < reactors_.size(); ++i) reactors_[i]->wake();
    // Exiting reactors decrement running_others_ under gate_mu_, so the
    // wait also unblocks when a reactor leaves instead of parking.
    gate_cv_.wait(lock, [&] { return parked_ >= running_others_; });
  }
  r0.producer.flush();
  if (crash_pending_.load(std::memory_order_relaxed)) {
    // A reactor took the simulated SIGKILL while we gathered the
    // rendezvous and exited without flushing. A real SIGKILL would let
    // nothing more out: running the operation (a checkpoint, a finalize,
    // a query drain) would persist or serve what the killed process never
    // could — bail out and let the crash teardown run. (The
    // running_others_ decrement happens under gate_mu_ after the crash
    // flag is set, so the wait above cannot miss this store.)
    release_gate();
    return false;
  }
  try {
    op();
  } catch (...) {
    release_gate();
    throw;
  }
  release_gate();
  return true;
}

void Server::release_gate() {
  if (reactors_.size() <= 1) return;
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    pause_requested_ = false;
  }
  pause_flag_.store(false, std::memory_order_release);
  gate_cv_.notify_all();
}

void Server::sync_ingest_metrics() {
  if (!metrics_) return;
  Metrics& m = *metrics_;
  const std::uint64_t applied = engine_->events_processed();
  const std::uint64_t replayed = engine_->events_replayed();
  obs::sync_counter(*m.records_applied, applied, m.applied_seen);
  obs::sync_counter(*m.records_replayed, replayed, m.replayed_seen);
  // In flight: parsed, but not yet decided by a shard.
  const std::uint64_t parsed = records_parsed_.load(std::memory_order_relaxed);
  m.ingest_lag->set(static_cast<std::int64_t>(
      parsed > applied + replayed ? parsed - applied - replayed : 0));
}

std::string Server::summary_json() {
  // drain() inside all_user_verdicts() makes every number exact for the
  // records applied so far — the serve analogue of finish()-then-report.
  // Caller must hold the pause gate (run_quiesced).
  const std::vector<stream::UserVerdicts> users =
      engine_->all_user_verdicts();
  const match::Partition totals = engine_->partition();

  std::uint64_t users_with_checkins = 0;
  double ratio_sum = 0.0;
  std::uint64_t users_with_gaps = 0;
  double burstiness_sum = 0.0;
  for (const stream::UserVerdicts& v : users) {
    if (v.partition.checkins > 0) {
      ++users_with_checkins;
      ratio_sum += v.extraneous_ratio();
    }
    if (v.gap_count > 0) {
      ++users_with_gaps;
      burstiness_sum += v.burstiness();
    }
  }

  std::string out = "{\"users\":";
  append_number(out, static_cast<std::uint64_t>(users.size()));
  out += ",\"events_processed\":";
  append_number(out,
                     static_cast<std::uint64_t>(engine_->events_processed()));
  out += ",\"records_parsed\":";
  append_number(out,
                     records_parsed_.load(std::memory_order_relaxed));
  out += ",\"cursor\":";
  append_number(out, cursor());
  out += ",\"partition\":";
  append_partition_json(out, totals);
  out += ",\"prevalence\":{\"users_with_checkins\":";
  append_number(out, users_with_checkins);
  out += ",\"mean_extraneous_ratio\":";
  append_number(out, users_with_checkins == 0
                              ? 0.0
                              : ratio_sum / static_cast<double>(
                                                users_with_checkins));
  out += "},\"burstiness\":{\"users_with_gaps\":";
  append_number(out, users_with_gaps);
  out += ",\"mean\":";
  append_number(
      out, users_with_gaps == 0
               ? 0.0
               : burstiness_sum / static_cast<double>(users_with_gaps));
  out += "},\"quarantined\":";
  append_number(out, quarantine_->total());
  out += "}";
  return out;
}

void Server::reactor_loop(Reactor& r, const std::atomic<bool>* stop,
                          bool* stopped_out) {
  const bool leader = (r.index == 0);
  std::vector<pollfd> pollfds;
  std::vector<std::size_t> tags;  // parallel to pollfds (ConnCore tags)

  while (true) {
    if (stop_all_.load(std::memory_order_relaxed)) break;
    if (crash_pending_.load(std::memory_order_relaxed)) break;
    if (leader) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
        if (stopped_out != nullptr) *stopped_out = true;
        break;
      }
      // After a drain, leave once every caller has its answer (or is gone).
      if (drain_done_.load(std::memory_order_relaxed) &&
          !r.core.answering()) {
        break;
      }
    } else {
      // Non-zero reactors have no HTTP conns; once the drain completed
      // their remaining work is zero (all ingest conns hit EOF before the
      // drain could finish).
      if (drain_done_.load(std::memory_order_relaxed) && r.core.empty()) {
        break;
      }
      park_if_paused(r);
    }

    pollfds.clear();
    tags.clear();
    if (leader) {
      const bool at_cap = hub_.at_cap();
      if (at_cap && !was_at_cap_ && metrics_) {
        metrics_->accept_backpressure->inc();
      }
      was_at_cap_ = at_cap;
    }
    // Reactor 0 polls both listeners. Only the ingest listener leaves its
    // poll set on drain: the control plane stays reachable so probes see
    // /readyz flip to 503 and a fronting router can keep fanning out admin
    // calls.
    pollfds.push_back({r.wake_fd.get(), POLLIN, 0});
    tags.push_back(kWakeTag);
    r.core.add_to_poll(
        pollfds, tags,
        leader && !drain_requested_.load(std::memory_order_relaxed), leader,
        /*read_ingest=*/true);

    const int ready = ::poll(pollfds.data(),
                             static_cast<nfds_t>(pollfds.size()),
                             kPollTimeoutMs);
    if (ready < 0 && errno != EINTR) {
      throw NetError(std::string("poll: ") + std::strerror(errno));
    }
    const Clock::time_point iteration_start = Clock::now();
    for (std::size_t i = 0; i < pollfds.size(); ++i) {
      if (pollfds[i].revents == 0) continue;
      if (tags[i] == kWakeTag) {
        r.adopt_dealt();
      } else {
        r.core.service(tags[i], pollfds[i].revents);
      }
    }
    if (const std::size_t closed = r.core.sweep_and_reap(iteration_start)) {
      r.ingest_conns.fetch_sub(closed, std::memory_order_relaxed);
      // Reactor 0 polls no listener at the cap, and completes a pending
      // drain only once every ingest connection is reaped: either way,
      // what was reaped here would otherwise wait out its tick.
      if (!leader && (drain_requested_.load(std::memory_order_relaxed) ||
                      hub_.open.load(std::memory_order_relaxed) + closed >=
                          config_.max_connections)) {
        reactors_.front()->wake();
      }
    }

    // Drain completion (leader only): every ingest stream everywhere has
    // been read to EOF and reaped (clients either closed or were
    // idle-swept), so the record set is final — park all reactors, flush
    // every producer, quiesce the engine, persist, finalize, and answer
    // the waiting caller(s).
    if (leader && drain_requested_.load(std::memory_order_relaxed) &&
        !drain_done_.load(std::memory_order_relaxed) &&
        hub_.open_ingest.load(std::memory_order_relaxed) == 0) {
      // Checkpoint first (resumable, pre-finalization state), then
      // finish(): finalization resolves the matcher's pending tail exactly
      // like end-of-stream in the batch pipeline, so the partition and the
      // per-user verdicts served after a drain equal a batch run bit for
      // bit.
      const bool finalized = run_quiesced(r, [&] {
        if (!config_.checkpoint_dir.empty()) write_checkpoint_now();
        engine_->finish();
      });
      if (finalized) {
        drain_done_.store(true, std::memory_order_release);
        r.core.answer_deferred({Route::kDrain, 200, drained_json(cursor())});
      }  // else: the crash hook fired mid-drain; the loop top exits next.
    }

    if (leader && !config_.checkpoint_dir.empty() &&
        config_.checkpoint_interval_records != 0 &&
        records_parsed_.load(std::memory_order_relaxed) -
                parsed_at_checkpoint_ >=
            config_.checkpoint_interval_records) {
      run_quiesced(r, [&] { write_checkpoint_now(); });
    }

    if (leader) sync_ingest_metrics();

    // Mirror producer stalls into the per-reactor counter and sample the
    // iteration's service time (poll wait excluded).
    if (r.m_stalls != nullptr) {
      const std::uint64_t stalls = r.producer.stalls();
      if (stalls > r.stalls_synced) {
        r.m_stalls->inc(stalls - r.stalls_synced);
        r.stalls_synced = stalls;
      }
    }
    if (r.m_loop_ns != nullptr) {
      r.m_loop_ns->observe(ns_since(iteration_start));
    }
  }

  // Loop exit: on the graceful paths, staged events must reach the engine
  // before the teardown drain/checkpoint. On the crash path everything
  // staged is lost, exactly as a real SIGKILL would lose it. (After a
  // completed drain the staging is already empty — flushed at the
  // rendezvous before finish().)
  if (!crash_pending_.load(std::memory_order_relaxed)) {
    r.producer.flush();
  }
}

ServeStats Server::run(const std::atomic<bool>* stop) {
  if (!started_) throw std::logic_error("Server::run before start()");

  bool stopped = false;
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    running_others_ = reactors_.size() - 1;
    parked_ = 0;
  }
  std::vector<std::thread> threads;
  threads.reserve(reactors_.size() - 1);
  for (std::size_t i = 1; i < reactors_.size(); ++i) {
    threads.emplace_back([this, i] {
      try {
        reactor_loop(*reactors_[i], nullptr, nullptr);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mu_);
          if (!reactor_error_) reactor_error_ = std::current_exception();
        }
        // A dead reactor cannot keep its conns or staging honest; treat
        // it as a crash so teardown abandons instead of checkpointing a
        // partial view.
        crash_pending_.store(true, std::memory_order_relaxed);
      }
      {
        std::lock_guard<std::mutex> lock(gate_mu_);
        --running_others_;
      }
      gate_cv_.notify_all();
    });
  }

  try {
    reactor_loop(*reactors_[0], stop, &stopped);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!reactor_error_) reactor_error_ = std::current_exception();
    crash_pending_.store(true, std::memory_order_relaxed);
  }
  // Woken, the others see stop_all_ at once instead of at their next tick
  // (which would also hold back a drain caller's EOF until teardown).
  stop_all_.store(true, std::memory_order_relaxed);
  for (std::size_t i = 1; i < reactors_.size(); ++i) reactors_[i]->wake();
  for (std::thread& t : threads) t.join();

  // Teardown. Crash simulation abandons everything in flight (recovery
  // must come from the last periodic checkpoint, as after a real SIGKILL);
  // the graceful paths quiesce and persist. All reactor threads are
  // joined, so the engine is single-producer again from here on.
  hub_.ingest_listener.reset();
  hub_.http_listener.reset();
  for (auto& reactor : reactors_) {
    reactor->adopt_dealt();  // dealt, never adopted: clear() frees them
    reactor->core.clear();
    stats_.http_requests += reactor->core.requests();
    stats_.connections += reactor->core.accepted();
  }
  if (crash_pending_.load(std::memory_order_relaxed)) {
    engine_->shutdown();
    stats_.exit = ServeExit::kCrashed;
  } else if (drain_done_.load(std::memory_order_relaxed)) {
    // Already checkpointed and finalized in the drain-completion step.
    stats_.exit = ServeExit::kDrained;
  } else {
    engine_->drain();
    if (!config_.checkpoint_dir.empty()) write_checkpoint_now();
    stats_.exit = stopped ? ServeExit::kStopped : ServeExit::kDrained;
  }
  sync_ingest_metrics();
  stats_.records_parsed = records_parsed_.load(std::memory_order_relaxed);
  stats_.records_applied = engine_->events_processed();
  stats_.records_replayed = engine_->events_replayed();
  stats_.records_malformed =
      records_malformed_.load(std::memory_order_relaxed);
  stats_.cursor = cursor();
  stats_.restored_cursor = restored_cursor_;

  // A reactor-thread failure is a runtime error, not a clean exit: report
  // it exactly like the single-threaded loop reported a poll failure.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error = reactor_error_;
  }
  if (error) std::rethrow_exception(error);
  return stats_;
}

}  // namespace geovalid::serve
