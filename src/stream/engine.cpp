#include "stream/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "trace/time.h"

#include "obs/metrics.h"
#include "stream/checkpoint.h"
#include "stream/faults.h"
#include "stream/online_matcher.h"
#include "stream/online_visit_detector.h"
#include "stream/quarantine.h"
#include "stream/snapshot_io.h"

namespace geovalid::stream {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kPrefetch = 4;  ///< records ahead, in Shard::run

std::uint64_t ns_since(Clock::time_point start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

/// Deterministic, platform-independent user -> shard mix (splitmix64
/// finalizer). Plain modulo would do, but sequential study ids would then
/// stripe shards unevenly under small N.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over serialized config fields — the checkpoint fingerprint.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void save_partition(SnapshotWriter& w, const match::Partition& p) {
  w.u64(p.honest);
  w.u64(p.extraneous);
  w.u64(p.missing);
  w.u64(p.checkins);
  w.u64(p.visits);
  for (const std::size_t n : p.by_class) w.u64(n);
}

match::Partition load_partition(SnapshotReader& r) {
  match::Partition p;
  p.honest = static_cast<std::size_t>(r.u64());
  p.extraneous = static_cast<std::size_t>(r.u64());
  p.missing = static_cast<std::size_t>(r.u64());
  p.checkins = static_cast<std::size_t>(r.u64());
  p.visits = static_cast<std::size_t>(r.u64());
  for (std::size_t& n : p.by_class) n = static_cast<std::size_t>(r.u64());
  return p;
}

void add_partition(match::Partition& into, const match::Partition& p) {
  into.honest += p.honest;
  into.extraneous += p.extraneous;
  into.missing += p.missing;
  into.checkins += p.checkins;
  into.visits += p.visits;
  for (std::size_t c = 0; c < p.by_class.size(); ++c) {
    into.by_class[c] += p.by_class[c];
  }
}

bool partition_equal(const match::Partition& a, const match::Partition& b) {
  return a.honest == b.honest && a.extraneous == b.extraneous &&
         a.missing == b.missing && a.checkins == b.checkins &&
         a.visits == b.visits && a.by_class == b.by_class;
}

/// Per-user incremental pipeline: raw events in, verdicts out. The matcher
/// counts each verdict into the user's own share and, through the context
/// the shard passes in, into the shard's running totals at once, so
/// partition() stays the cheap per-shard sum while each user's share
/// remains queryable (the serve layer's /v1/users/{id}/verdicts endpoint).
struct UserPipeline {
  OnlineVisitDetector detector;
  OnlineMatcher matcher;
  trace::TimeSec last_event_t = 0;
  bool saw_event = false;

  // Online checkin-interarrival statistics (Welford, minutes): the
  // burstiness inputs, updated per applied checkin.
  trace::TimeSec last_checkin_t = 0;
  std::uint64_t checkins_seen = 0;
  std::uint64_t gap_count = 0;
  double gap_mean_min = 0.0;
  double gap_m2 = 0.0;

  void observe_checkin_time(trace::TimeSec t) {
    if (checkins_seen > 0) {
      const double gap_min = trace::to_minutes(t - last_checkin_t);
      gap_count += 1;
      const double d = gap_min - gap_mean_min;
      gap_mean_min += d / static_cast<double>(gap_count);
      gap_m2 += d * (gap_min - gap_mean_min);
    }
    checkins_seen += 1;
    last_checkin_t = t;
  }
};

/// A shard's one map entry per user: coverage for every user seen, and a
/// pipeline from the first record past the payload checks on.
struct UserState {
  CoverageEntry coverage;
  std::unique_ptr<UserPipeline> pipeline;
};

UserVerdicts make_user_verdicts(trace::UserId id, const UserPipeline& p) {
  UserVerdicts v;
  v.id = id;
  v.partition = p.matcher.verdicts();
  v.checkins_seen = p.checkins_seen;
  v.gap_count = p.gap_count;
  v.gap_mean_min = p.gap_mean_min;
  v.gap_m2 = p.gap_m2;
  return v;
}

/// Cached metric handles; all null when StreamEngineConfig::metrics is
/// false, which turns every instrumentation site into a predictable
/// null-check. Registered once in the StreamEngine constructor so the
/// registry mutex never appears on the hot path.
struct ShardMetrics {
  obs::Counter* events_gps = nullptr;
  obs::Counter* events_checkin = nullptr;
  obs::Counter* shard_events = nullptr;    ///< per-shard label
  obs::Counter* stalls = nullptr;          ///< per-shard label
  obs::Gauge* mailbox_depth = nullptr;     ///< per-shard label
  obs::Histogram* stall_wait_ns = nullptr;
  obs::Histogram* batch_latency_ns = nullptr;
  obs::Counter* verdict_honest = nullptr;
  obs::Counter* verdict_extraneous = nullptr;
  obs::Counter* verdict_missing = nullptr;
  obs::Counter* checkins = nullptr;
  obs::Counter* visits = nullptr;
  obs::Counter* scored = nullptr;       ///< per-shard label; model only
  obs::Gauge* scored_users = nullptr;   ///< per-shard label; model only
};

}  // namespace

struct StreamEngine::Shard {
  /// One mailbox handoff: the event batch plus its enqueue time, so the
  /// worker can record queue-wait + processing latency per batch.
  struct Batch {
    std::vector<Event> events;
    Clock::time_point enqueued;
  };

  // Mailbox (producer <-> worker). Whole batches are handed over by move —
  // the lock is taken once per ~batch_size events and no Event is ever
  // copied across the boundary.
  std::mutex mu;
  std::condition_variable cv_producer;  // signalled when space frees up
  std::condition_variable cv_worker;    // signalled when batches/close arrive
  std::condition_variable cv_idle;      // signalled when the worker goes idle
  std::deque<Batch> mailbox;  // batches, FIFO
  std::size_t capacity_batches = 1;
  bool closed = false;
  bool busy = false;  ///< worker holds an unprocessed chunk (see drain())
  /// Cleared by shutdown(): join without flushing open per-user state —
  /// the crash-simulation path, where recovery must come from a checkpoint.
  bool finalize_on_close = true;

  std::size_t index = 0;          ///< this shard's position in shards_
  std::uint64_t fault_seq = 0;    ///< worker-local event ordinal (fault hook)

  // Worker-owned state.
  std::unordered_map<trace::UserId, UserState> users;
  std::vector<UserState*> resolved;  ///< run()'s per-batch lookups, reused
  match::Partition totals;
  match::Partition counted;  ///< portion of `totals` already in the counters

  // Online scoring (engaged only when the engine has a model). The scorer
  // is worker-owned like `users`; queries read it under the same drain()
  // quiescence contract.
  std::optional<score::OnlineScorer> scorer;
  std::uint64_t scored_total = 0;
  std::uint64_t scored_counted = 0;  ///< portion already in the counter

  ShardMetrics metrics;

  // Published results.
  mutable std::mutex snapshot_mu;
  match::Partition snapshot;
  std::atomic<std::size_t> processed{0};
  std::atomic<std::size_t> replayed{0};
  std::exception_ptr error;

  std::thread worker;

  /// Decides one record of user `u`, in its user's arrival order: coverage
  /// first (so a quarantined record counts as arrived too), then the
  /// payload and time order checks, then the pipeline. Returns false for a
  /// covered replay, which is skipped.
  bool process(const Event& e, UserState& u, const StreamEngineConfig& config) {
    if (u.coverage.arrive()) return false;
    if (config.quarantine != nullptr) {
      // Payload checks need no history: garbage never reaches the geodesic
      // math, and creates no user state.
      if (const auto reason = validate_event(e, config.known_users)) {
        config.quarantine->record(e, *reason);
        return true;
      }
    }
    if (config.faults != nullptr) {
      config.faults->on_shard_event(index, fault_seq++);
    }
    if (!u.pipeline) u.pipeline = std::make_unique<UserPipeline>();
    UserPipeline& p = *u.pipeline;

    const trace::TimeSec t = e.time();
    if (p.saw_event && t < p.last_event_t) {
      if (config.quarantine != nullptr) {
        // Graceful degradation: the event is never applied (replaying a
        // late event would change verdicts vs the batch pipeline), only
        // triaged — recoverably late vs stale — and dead-lettered.
        config.quarantine->record(
            e, p.last_event_t - t <= config.reorder_window
                   ? QuarantineReason::kLateTimestamp
                   : QuarantineReason::kStaleTimestamp);
        return true;
      }
      std::ostringstream os;
      os << "StreamEngine: events for user " << e.user
         << " regressed in time (" << t << " after " << p.last_event_t << ")";
      throw std::invalid_argument(os.str());
    }
    p.last_event_t = t;
    p.saw_event = true;

    const OnlineMatcher::Context ctx{config.match, config.classifier, totals};
    if (e.kind == Event::Kind::kGps) {
      p.matcher.observe_gps(e.gps, ctx);
      if (auto visit = p.detector.push(e.gps, config.detector)) {
        p.matcher.push_visit(*visit, ctx);
      }
    } else {
      p.observe_checkin_time(t);
      if (scorer) {
        scorer->observe(e.user, e.checkin);
        ++scored_total;
      }
      p.matcher.push_checkin(e.checkin, ctx);
    }
    p.matcher.advance(t, p.detector.open_window_start().value_or(t), ctx);
    return true;
  }

  void run(const StreamEngineConfig& config) {
    bool failed = false;
    bool finalize = true;
    std::deque<Batch> work;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_worker.wait(lock, [&] { return !mailbox.empty() || closed; });
        if (mailbox.empty() && closed) {
          finalize = finalize_on_close;
          break;
        }
        work.swap(mailbox);
        busy = true;  // drain() must not report idle while this chunk runs
        if (metrics.mailbox_depth) metrics.mailbox_depth->set(0);
      }
      // The whole mailbox just emptied: every blocked producer has room.
      cv_producer.notify_all();
      std::size_t n = 0, n_gps = 0, skipped = 0;
      for (const Batch& batch : work) {
        const std::vector<Event>& events = batch.events;
        n += events.size();
        // Every record's user first: the lookups do not depend on each
        // other, so their cache misses overlap.
        resolved.clear();
        for (const Event& e : events) {
          n_gps += e.kind == Event::Kind::kGps;
          if (!failed) resolved.push_back(&users[e.user]);
        }
        if (!failed) {
          try {
            for (std::size_t i = 0; i < events.size(); ++i) {
              if (i + kPrefetch < events.size()) {
                __builtin_prefetch(resolved[i + kPrefetch]->pipeline.get());
              }
              if (!process(events[i], *resolved[i], config)) ++skipped;
            }
          } catch (...) {
            // Record the first failure, then keep draining so the producer
            // never deadlocks on a full mailbox.
            error = std::current_exception();
            failed = true;
          }
        }
        if (metrics.batch_latency_ns) {
          metrics.batch_latency_ns->observe(ns_since(batch.enqueued));
        }
      }
      processed.fetch_add(n - skipped, std::memory_order_relaxed);
      replayed.fetch_add(skipped, std::memory_order_relaxed);
      if (metrics.shard_events) {
        // One flush per drained chunk, not per event: the counters are
        // shared across shards, so per-event increments would bounce the
        // cache line between workers.
        metrics.shard_events->inc(n);
        metrics.events_gps->inc(n_gps);
        metrics.events_checkin->inc(n - n_gps);
      }
      publish();
      // Free the chunk's batches before going idle: drain() returns on
      // `busy`, and its caller may count the heap (test_stream_memory).
      work.clear();
      {
        std::lock_guard<std::mutex> lock(mu);
        busy = false;
      }
      cv_idle.notify_all();
    }
    if (!failed && finalize) {
      const OnlineMatcher::Context ctx{config.match, config.classifier, totals};
      for (auto& [id, u] : users) {
        if (!u.pipeline) continue;
        UserPipeline& p = *u.pipeline;
        if (auto visit = p.detector.finish(config.detector)) {
          p.matcher.push_visit(*visit, ctx);
        }
        p.matcher.finish(ctx);
      }
    }
    publish();
  }

  void publish() {
    // Verdict counters advance by the delta since the last publish; the
    // partition fields are increment-only, so deltas are non-negative and
    // the counter totals equal partition() exactly once the run drains.
    if (metrics.verdict_honest) {
      metrics.verdict_honest->inc(totals.honest - counted.honest);
      metrics.verdict_extraneous->inc(totals.extraneous - counted.extraneous);
      metrics.verdict_missing->inc(totals.missing - counted.missing);
      metrics.checkins->inc(totals.checkins - counted.checkins);
      metrics.visits->inc(totals.visits - counted.visits);
      counted = totals;
    }
    if (metrics.scored) {
      metrics.scored->inc(scored_total - scored_counted);
      scored_counted = scored_total;
      metrics.scored_users->set(
          static_cast<std::int64_t>(scorer->user_count()));
    }
    std::lock_guard<std::mutex> lock(snapshot_mu);
    snapshot = totals;
  }
};

StreamEngine::StreamEngine(StreamEngineConfig config) : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.mailbox_capacity < config_.batch_size) {
    config_.mailbox_capacity = config_.batch_size;
  }
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = s;
    shards_.back()->capacity_batches =
        std::max<std::size_t>(1, config_.mailbox_capacity / config_.batch_size);
    if (config_.model != nullptr) {
      shards_.back()->scorer.emplace(*config_.model);
    }
  }
  producer_.emplace(*this);
  if (config_.metrics) {
    obs::Registry& r = obs::registry();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ShardMetrics& m = shards_[s]->metrics;
      const obs::Labels shard_label{{"shard", std::to_string(s)}};
      m.events_gps = &r.counter("stream_events_total",
                                "Events consumed by shard workers, by kind",
                                {{"kind", "gps"}});
      m.events_checkin = &r.counter("stream_events_total",
                                    "Events consumed by shard workers, by kind",
                                    {{"kind", "checkin"}});
      m.shard_events =
          &r.counter("stream_shard_events_total",
                     "Events consumed per shard (shard balance)", shard_label);
      m.stalls = &r.counter(
          "stream_backpressure_stalls_total",
          "Producer blocks on a full shard mailbox", shard_label);
      m.mailbox_depth = &r.gauge("stream_shard_mailbox_batches",
                                 "Batches queued in the shard mailbox",
                                 shard_label);
      m.stall_wait_ns = &r.histogram(
          "stream_backpressure_wait_ns",
          "Producer wall time spent blocked on full mailboxes (nanoseconds)");
      m.batch_latency_ns = &r.histogram(
          "stream_batch_latency_ns",
          "Mailbox handoff to batch fully processed (nanoseconds); one "
          "sample per batch, the engine's event-latency proxy");
      static constexpr std::string_view kVerdictHelp =
          "Streaming verdicts by partition field";
      m.verdict_honest = &r.counter("stream_verdicts_total", kVerdictHelp,
                                    {{"verdict", "honest"}});
      m.verdict_extraneous = &r.counter("stream_verdicts_total", kVerdictHelp,
                                        {{"verdict", "extraneous"}});
      m.verdict_missing = &r.counter("stream_verdicts_total", kVerdictHelp,
                                     {{"verdict", "missing"}});
      m.checkins = &r.counter("stream_checkins_total",
                              "Checkins processed by the streaming engine");
      m.visits = &r.counter(
          "stream_visits_total",
          "Visits detected online from GPS by the streaming engine");
      if (config_.model != nullptr) {
        m.scored = &r.counter(
            "score_checkins_scored_total",
            "Checkins scored through the loaded detection model",
            shard_label);
        m.scored_users = &r.gauge(
            "score_users_tracked",
            "Users with at least one scored checkin", shard_label);
      }
    }
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, sh = shard.get()] { sh->run(config_); });
  }
}

StreamEngine::~StreamEngine() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; finish() rethrows for callers who care.
  }
}

std::size_t StreamEngine::shard_of(trace::UserId user) const {
  return static_cast<std::size_t>(mix64(user) % shards_.size());
}

void StreamEngine::push(const Event& e) { producer_->push(e); }

StreamEngine::Producer::Producer(StreamEngine& engine) : engine_(engine) {
  staging_.resize(engine_.shards_.size());
  for (auto& s : staging_) s.reserve(engine_.config_.batch_size);
}

void StreamEngine::Producer::stage(std::span<const Event> events,
                                   std::size_t hand_off_at) {
  if (engine_.finished_) {
    throw std::logic_error("StreamEngine::push called after finish()");
  }
  engine_.pushed_.fetch_add(events.size(), std::memory_order_relaxed);
  for (const Event& e : events) {
    const std::size_t s = engine_.shard_of(e.user);
    staging_[s].push_back(e);
    if (staging_[s].size() >= hand_off_at) hand_off(s);
  }
}

void StreamEngine::Producer::push(const Event& e) {
  stage({&e, 1}, engine_.config_.batch_size);
}

void StreamEngine::Producer::stage_batch(std::span<const Event> events) {
  stage(events, SIZE_MAX);
  // One handoff per touched shard for the whole span — a full frame rides
  // into a mailbox under a single lock acquisition, even when it exceeds
  // batch_size (a mailbox batch is a vector of any length; the cap counts
  // batches, and workers drain whole batches regardless of size).
  for (std::size_t s = 0; s < staging_.size(); ++s) {
    if (staging_[s].size() >= engine_.config_.batch_size) hand_off(s);
  }
}

void StreamEngine::Producer::flush() {
  for (std::size_t s = 0; s < staging_.size(); ++s) hand_off(s);
}

void StreamEngine::Producer::hand_off(std::size_t s) {
  std::vector<Event>& staged = staging_[s];
  if (staged.empty()) return;
  Shard& shard = *engine_.shards_[s];
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    const bool full = shard.mailbox.size() >= shard.capacity_batches;
    if (full) {
      if (shard.metrics.stalls) shard.metrics.stalls->inc();
      ++stalls_;
    }
    {
      obs::StageTimer stall(full ? shard.metrics.stall_wait_ns : nullptr);
      shard.cv_producer.wait(lock, [&] {
        return shard.mailbox.size() < shard.capacity_batches;
      });
    }
    shard.mailbox.push_back(
        Shard::Batch{std::move(staged), Clock::now()});
    if (shard.metrics.mailbox_depth) {
      shard.metrics.mailbox_depth->set(
          static_cast<std::int64_t>(shard.mailbox.size()));
    }
  }
  shard.cv_worker.notify_one();
  staged = std::vector<Event>();
  staged.reserve(engine_.config_.batch_size);
}

void StreamEngine::finish() {
  if (finished_) return;
  producer_->flush();
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->closed = true;
    }
    shard->cv_worker.notify_one();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  finished_ = true;
  for (auto& shard : shards_) {
    if (shard->error) std::rethrow_exception(shard->error);
  }
}

void StreamEngine::drain() {
  if (finished_) return;
  producer_->flush();
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->cv_idle.wait(
        lock, [&] { return shard->mailbox.empty() && !shard->busy; });
  }
  for (auto& shard : shards_) {
    if (shard->error) std::rethrow_exception(shard->error);
  }
  if (config_.quarantine != nullptr) config_.quarantine->flush();
}

void StreamEngine::shutdown() {
  if (finished_) return;
  // No staging flush: staged-but-unsent events are lost, exactly as a
  // crash would lose them.
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->finalize_on_close = false;
      shard->closed = true;
    }
    shard->cv_worker.notify_one();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  finished_ = true;
}

std::uint64_t StreamEngine::config_fingerprint() const {
  // Semantic pipeline parameters only: anything that changes verdicts.
  // Shard count, batch size, mailbox depth and metrics are execution
  // details — a checkpoint is portable across them by design.
  SnapshotWriter w;
  w.f64(config_.match.alpha_m);
  w.i64(config_.match.beta);
  w.boolean(config_.match.rematch_losers);
  w.boolean(config_.match.reference_matcher);
  w.f64(config_.classifier.remote_threshold_m);
  w.f64(config_.classifier.driveby_speed_mps);
  w.i64(config_.classifier.max_gps_gap);
  w.f64(config_.detector.radius_m);
  w.i64(config_.detector.min_duration);
  w.i64(config_.detector.max_sample_gap);
  w.f64(config_.detector.stationary.accel_variance_max);
  w.u64(config_.detector.stationary.wifi_stable_samples);
  w.i64(config_.reorder_window);
  // Appended only when scoring is on: model-less fingerprints are
  // unchanged (old checkpoints still load), while a checkpoint written
  // under one model refuses to resume under another or with scoring off.
  if (config_.model != nullptr) w.u64(config_.model->fingerprint());
  return fnv1a64(w.bytes());
}

std::string StreamEngine::save_state() {
  drain();
  SnapshotWriter w;
  // State only grows between periodic checkpoints; last size + slack makes
  // the serialization a single allocation on the steady-state path.
  w.reserve(last_state_bytes_ + last_state_bytes_ / 4 + 4096);
  w.u64(config_fingerprint());

  // Verdict totals, summed across shards. After drain() every shard has
  // published, so snapshots equal worker-side totals.
  save_partition(w, partition());

  // Per-user pipelines, globally sorted by id: the bytes are a pure
  // function of the pushed event prefix, independent of the shard count.
  // Reading worker-owned maps is safe here — drain() left every worker
  // idle, and the mailbox mutex handshake orders their writes before our
  // reads.
  std::vector<std::pair<trace::UserId, const UserPipeline*>> all;
  for (const auto& shard : shards_) {
    for (const auto& [id, u] : shard->users) {
      if (u.pipeline) all.emplace_back(id, u.pipeline.get());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(all.size());
  for (const auto& [id, p] : all) {
    w.u32(id);
    w.boolean(p->saw_event);
    w.i64(p->last_event_t);
    save_partition(w, p->matcher.verdicts());
    w.u64(p->checkins_seen);
    w.i64(p->last_checkin_t);
    w.u64(p->gap_count);
    w.f64(p->gap_mean_min);
    w.f64(p->gap_m2);
    p->detector.save(w);
    p->matcher.save(w);
    // Scorer state rides in the same per-user section, gated on the model
    // (whose fingerprint is already part of the payload's config print).
    if (config_.model != nullptr) {
      shards_[shard_of(id)]->scorer->save_user(w, id);
    }
  }
  std::string out = w.take();
  last_state_bytes_ = out.size();
  return out;
}

Coverage StreamEngine::coverage() {
  drain();
  Coverage out;
  for (const auto& shard : shards_) {
    for (const auto& [id, u] : shard->users) {
      if (u.coverage.covered() > 0) out.emplace_back(id, u.coverage.covered());
    }
  }
  return out;
}

void StreamEngine::restore_coverage(const Coverage& coverage) {
  // Written before anything is pushed: the first mailbox handoff orders
  // these writes before the worker's reads, as for load_state().
  for (const auto& [user, covered] : coverage) {
    shards_[shard_of(user)]->users[user].coverage.prefix = covered;
  }
}

void StreamEngine::load_state(std::string_view payload) {
  if (finished_) {
    throw std::logic_error("StreamEngine::load_state called after finish()");
  }
  if (pushed_.load(std::memory_order_relaxed) != 0) {
    throw std::logic_error(
        "StreamEngine::load_state requires a fresh engine (nothing pushed)");
  }
  SnapshotReader r(payload);
  const std::uint64_t fingerprint = r.u64();
  if (fingerprint != config_fingerprint()) {
    throw CheckpointError(
        CheckpointError::Kind::kConfigMismatch,
        "checkpoint: pipeline config differs from the one that wrote the "
        "snapshot; resuming would silently change verdicts");
  }
  const match::Partition restored = load_partition(r);

  match::Partition user_sum;
  const std::uint64_t user_count = r.u64();
  for (std::uint64_t i = 0; i < user_count; ++i) {
    const trace::UserId id = r.u32();
    Shard& shard = *shards_[shard_of(id)];
    std::unique_ptr<UserPipeline>& slot = shard.users[id].pipeline;
    if (slot) throw SnapshotError("snapshot: duplicate user id");
    slot = std::make_unique<UserPipeline>();
    UserPipeline& p = *slot;
    p.saw_event = r.boolean();
    p.last_event_t = r.i64();
    p.matcher.restore_verdicts(load_partition(r));
    p.checkins_seen = r.u64();
    p.last_checkin_t = r.i64();
    p.gap_count = r.u64();
    p.gap_mean_min = r.f64();
    p.gap_m2 = r.f64();
    p.detector.load(r);
    p.matcher.load(r);
    if (config_.model != nullptr) shard.scorer->load_user(r, id);
    // Restored history lands in the owning shard's totals, so per-user
    // shares and per-shard sums stay consistent across a resume.
    add_partition(shard.totals, p.matcher.verdicts());
    add_partition(user_sum, p.matcher.verdicts());
  }
  if (!r.exhausted()) {
    throw SnapshotError("snapshot: trailing bytes after engine state");
  }
  // The global partition is redundant with the per-user shares by
  // construction; a mismatch means the payload is internally inconsistent
  // (impossible for honest files — the container CRC already passed).
  if (!partition_equal(user_sum, restored)) {
    throw SnapshotError(
        "snapshot: per-user verdicts do not sum to the stored totals");
  }

  // `counted` absorbs the restored history, so the verdict *counters*
  // report only post-restore work — the metrics registry must not re-emit
  // history that was already emitted before the crash.
  for (auto& shard : shards_) {
    shard->counted = shard->totals;
    std::lock_guard<std::mutex> lock(shard->snapshot_mu);
    shard->snapshot = shard->totals;
  }
}

match::Partition StreamEngine::partition() const {
  match::Partition sum;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->snapshot_mu);
    const match::Partition& p = shard->snapshot;
    sum.honest += p.honest;
    sum.extraneous += p.extraneous;
    sum.missing += p.missing;
    sum.checkins += p.checkins;
    sum.visits += p.visits;
    for (std::size_t c = 0; c < p.by_class.size(); ++c) {
      sum.by_class[c] += p.by_class[c];
    }
  }
  return sum;
}

std::size_t StreamEngine::events_processed() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->processed.load(std::memory_order_relaxed);
  }
  return n;
}

std::size_t StreamEngine::events_replayed() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->replayed.load(std::memory_order_relaxed);
  }
  return n;
}

// The query API reads worker-owned maps, so each call quiesces the engine
// first (drain() is a no-op after finish(), when the workers are joined).
// Producer thread only, like push().

std::optional<UserVerdicts> StreamEngine::user_verdicts(trace::UserId user) {
  drain();
  const Shard& shard = *shards_[shard_of(user)];
  const auto it = shard.users.find(user);
  if (it == shard.users.end() || !it->second.pipeline) return std::nullopt;
  return make_user_verdicts(user, *it->second.pipeline);
}

std::vector<UserVerdicts> StreamEngine::all_user_verdicts() {
  drain();
  std::vector<UserVerdicts> out;
  for (const auto& shard : shards_) {
    for (const auto& [id, u] : shard->users) {
      if (u.pipeline) out.push_back(make_user_verdicts(id, *u.pipeline));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const UserVerdicts& a, const UserVerdicts& b) {
              return a.id < b.id;
            });
  return out;
}

std::size_t StreamEngine::user_count() {
  drain();
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    for (const auto& [id, u] : shard->users) n += u.pipeline != nullptr;
  }
  return n;
}

std::optional<score::UserScoreSnapshot> StreamEngine::user_score(
    trace::UserId user) {
  if (config_.model == nullptr) return std::nullopt;
  drain();
  return shards_[shard_of(user)]->scorer->user_score(user);
}

std::vector<score::SuspectEntry> StreamEngine::top_suspects(std::size_t k) {
  if (config_.model == nullptr || k == 0) return {};
  drain();
  // Each shard's top-k is a superset of its contribution to the global
  // top-k; merge and re-rank with the same total order the shards used.
  std::vector<score::SuspectEntry> merged;
  for (const auto& shard : shards_) {
    std::vector<score::SuspectEntry> part = shard->scorer->suspects(k);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const score::SuspectEntry& a, const score::SuspectEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.user < b.user;
            });
  if (merged.size() > k) merged.resize(k);
  return merged;
}

double UserVerdicts::extraneous_ratio() const {
  if (partition.checkins == 0) return 0.0;
  return static_cast<double>(partition.extraneous) /
         static_cast<double>(partition.checkins);
}

double UserVerdicts::gap_stddev_min() const {
  if (gap_count == 0) return 0.0;
  return std::sqrt(gap_m2 / static_cast<double>(gap_count));
}

double UserVerdicts::burstiness() const {
  if (gap_count == 0) return 0.0;
  const double sigma = gap_stddev_min();
  const double denom = sigma + gap_mean_min;
  return denom == 0.0 ? 0.0 : (sigma - gap_mean_min) / denom;
}

}  // namespace geovalid::stream
