// Sharded streaming validation engine.
//
// Users are hashed onto N shards; each shard is a worker thread owning the
// per-user state (OnlineVisitDetector + OnlineMatcher) of its users, so no
// user's state is ever touched by two threads. The producer pushes Events,
// which are staged into per-shard batches and handed over through bounded
// mailboxes (blocking the producer when a shard falls behind —
// backpressure, not unbounded buffering). Each shard accumulates its own
// match::Partition; partition() sums the published per-shard snapshots at
// any time during the run and is exact after finish().
//
// Ordering contract: each user's events must be pushed with non-decreasing
// timestamps (violations throw from finish()). Different users may
// interleave arbitrarily — shard-local processing order equals push order
// per user, which is all the incremental pipeline needs, so the final
// partition is independent of the shard count.
//
// One place decides each record: the shard that owns its user, in arrival
// order (Shard::process). It counts the arrival in its CoverageLedger
// (stream/coverage.h) and skips a covered replay, then checks the payload
// and the user's time order, then runs the pipeline: a quarantined record
// still counts as arrived, so a resume skips it instead of judging it.
//
// Producers: every event enters through a Producer handle, which only
// routes — private per-shard staging, handoff under the owning shard's
// mutex only, no engine-global lock; push() is the engine's own.
// Concurrent producer threads each take their own handle. The quiescence
// points (drain/finish/save_state) assume a single caller with every
// other Producer flushed and parked; the serve layer's reactor pause gate
// provides exactly that rendezvous.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "match/pipeline.h"
#include "score/scorer.h"
#include "stream/coverage.h"
#include "stream/event.h"
#include "trace/visit_detector.h"

namespace geovalid::stream {

class FaultInjector;
class Quarantine;

/// One user's live validation state, as served by the query API: the
/// user's share of the verdict partition plus online checkin-interarrival
/// statistics (Welford mean/M2 over gaps in minutes — the §5.3 burstiness
/// inputs, computed incrementally instead of from a stored gap list).
struct UserVerdicts {
  trace::UserId id = 0;
  match::Partition partition;       ///< this user's verdict share
  std::uint64_t checkins_seen = 0;  ///< applied (non-quarantined) checkins
  std::uint64_t gap_count = 0;      ///< interarrival gaps = checkins_seen - 1
  double gap_mean_min = 0.0;        ///< mean gap, minutes
  double gap_m2 = 0.0;              ///< Welford sum of squared deviations

  /// Extraneous share of this user's checkins (Figure 5 prevalence); 0.0
  /// when the user has no checkins yet.
  [[nodiscard]] double extraneous_ratio() const;

  /// Population standard deviation of the interarrival gaps, minutes.
  [[nodiscard]] double gap_stddev_min() const;

  /// Burstiness B = (sigma - mu) / (sigma + mu) of the interarrival gaps:
  /// +1 bursty, 0 Poisson-like, -1 periodic. 0.0 until the user has gaps.
  [[nodiscard]] double burstiness() const;
};

struct StreamEngineConfig {
  /// Worker threads; each owns an exclusive slice of the user population.
  std::size_t shards = 1;

  /// Events a shard mailbox holds before push() blocks the producer.
  std::size_t mailbox_capacity = 1 << 16;

  /// Events staged producer-side per shard before a mailbox handoff; the
  /// batch amortizes the mailbox lock across hundreds of events.
  std::size_t batch_size = 512;

  /// Report into the process-wide obs::registry(): per-shard event counts
  /// and mailbox depth, backpressure stalls, batch latency, verdict
  /// totals. Counter flushes are amortized per batch, so the overhead is
  /// well under the 5% budget (bench_stream_throughput measures it).
  /// Disable for A/B overhead measurement.
  bool metrics = true;

  match::MatchConfig match;
  match::ClassifierConfig classifier;
  trace::VisitDetectorConfig detector;

  /// Optional dead-letter sink (see stream/quarantine.h). When set, the
  /// owning shard records malformed records there — bad coordinates,
  /// timestamp overflow, unknown users, per-user timestamp regressions —
  /// and skips them, and the engine keeps running; when null, regressions
  /// throw from finish() as before and payloads are not validated.
  Quarantine* quarantine = nullptr;

  /// Per-user timestamp regressions up to this bound are quarantined as
  /// `late_timestamp` (slightly late — fixable by buffering upstream);
  /// larger ones as `stale_timestamp`. Pure reason-code triage: a late
  /// event is never applied, because replaying it would silently change
  /// verdicts relative to the batch pipeline. Only read when `quarantine`
  /// is set.
  trace::TimeSec reorder_window = 0;

  /// Enrolled user ids; events for other ids quarantine as `unknown_user`.
  /// Null disables the check. Only read when `quarantine` is set.
  const std::unordered_set<trace::UserId>* known_users = nullptr;

  /// Deterministic fault injection (tests and `--inject-faults`): shard
  /// workers call FaultInjector::on_shard_event before each event that
  /// passed the replay skip and the payload checks.
  const FaultInjector* faults = nullptr;

  /// Live fake-checkin scoring (serve --model): each shard scores every
  /// applied checkin through this model as it arrives, and the query API
  /// (user_score/top_suspects) serves exact batch-equivalent scores. The
  /// model must outlive the engine; null disables scoring entirely. The
  /// model's fingerprint joins the config fingerprint, so a checkpoint
  /// written under one model refuses to resume under another.
  const score::ScoreModel* model = nullptr;
};

class StreamEngine {
 public:
  explicit StreamEngine(StreamEngineConfig config = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Routes one event to its user's shard via the engine's own Producer;
  /// the shard decides it (coverage, validation, order). Single producer
  /// thread; blocks when that shard's mailbox is full. Must not be called
  /// after finish().
  void push(const Event& e);

  /// A handle for one producer thread: the engine owns the one behind
  /// push(), and each serve reactor holds its own. Each handle owns
  /// private per-shard staging, so concurrent producers only ever meet at
  /// a shard's mailbox mutex — there is no engine-global lock anywhere on
  /// the ingest path. Contract:
  ///   * one thread per handle (the handle itself is not thread-safe);
  ///   * all of a given user's events must flow through a single handle —
  ///     mailbox FIFO order is per-user order only then;
  ///   * every other handle must be flush()ed and its thread parked before
  ///     drain()/finish()/save_state()/user_verdicts() run (the serve
  ///     layer's pause gate provides that rendezvous);
  ///   * a handle must not outlive its engine.
  class Producer {
   public:
    explicit Producer(StreamEngine& engine);
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;

    /// Same contract as StreamEngine::push, from this handle's thread;
    /// blocks on the target shard's mailbox when full.
    void push(const Event& e);

    /// Bulk push for a whole decoded batch (the serve layer's ingest
    /// path): stages every event, then hands each touched shard's staging
    /// to its mailbox at most once — one lock acquisition per shard per
    /// call instead of one per `batch_size` boundary. The observable
    /// semantics equal pushing the span element-by-element (same order,
    /// same verdicts); only the handoff batching differs.
    void stage_batch(std::span<const Event> events);

    /// Hands every staged batch to its shard mailbox. Must run before any
    /// engine-wide quiescence point; cheap no-op when nothing is staged.
    void flush();

    /// Times this handle found a mailbox full and had to wait (monotone;
    /// the serve layer mirrors it into serve_reactor_stalls_total).
    [[nodiscard]] std::uint64_t stalls() const { return stalls_; }

   private:
    /// The one routing step behind push() and stage_batch(): stages each
    /// event on its user's shard and hands a shard's staging off as soon
    /// as it holds `hand_off_at` events.
    void stage(std::span<const Event> events, std::size_t hand_off_at);

    /// Moves shard `s`'s staging into its mailbox, blocking while the
    /// mailbox is full. Takes only that shard's mutex — safe beside any
    /// number of concurrent producers.
    void hand_off(std::size_t s);

    StreamEngine& engine_;
    std::vector<std::vector<Event>> staging_;  // per shard
    std::uint64_t stalls_ = 0;
  };

  /// Flushes push()'s staging, drains every shard, finalizes all per-user
  /// state and joins the workers. Rethrows the first worker error (e.g. an
  /// out-of-order user stream). Idempotent.
  void finish();

  /// Quiesces the engine without ending the stream: flushes push()'s
  /// staging and blocks until every shard's mailbox is empty and its worker
  /// idle. On return, partition() is exact for everything pushed so far and
  /// no worker touches per-user state until the next push — the window in
  /// which save_state() may run. Rethrows the first worker error (a
  /// poisoned engine cannot be checkpointed). The engine keeps running.
  void drain();

  /// Joins the workers without end-of-stream finalization: open visit
  /// windows and pending matcher state are abandoned, not flushed into the
  /// partition. This is the crash-simulation / SIGKILL path — recovery must
  /// come from a checkpoint, exactly as after a real crash. Worker errors
  /// are not rethrown. Idempotent with finish().
  void shutdown();

  /// Serializes the complete engine state (verdict totals + every user's
  /// verdict share, interarrival statistics, detector, matcher and
  /// ordering clock) after an implicit drain(). The
  /// bytes are deterministic and shard-count independent: users are written
  /// globally sorted by id, so the same pushed prefix yields byte-identical
  /// state regardless of `shards`. The payload starts with a fingerprint of
  /// the semantic pipeline config (matcher/classifier/detector parameters —
  /// not shard count or batch size), which load_state() verifies.
  [[nodiscard]] std::string save_state();

  /// Every user's covered records, max(prefix, arrived), gathered from
  /// the shards' ledgers: what serve's checkpoint stores beside
  /// save_state() (implicit drain(); producer thread only). Unsorted.
  [[nodiscard]] Coverage coverage();

  /// Makes each (user, covered) pair that user's covered prefix: the
  /// shard skips the user's first `covered` arrivals as replays. Fresh
  /// engine only, like load_state().
  void restore_coverage(const Coverage& coverage);

  /// Restores save_state() bytes into a fresh engine (nothing pushed yet).
  /// The restored run may use a different shard count. Throws
  /// CheckpointError{kConfigMismatch} when the payload was produced under a
  /// different pipeline config, SnapshotError on malformed bytes.
  void load_state(std::string_view payload);

  /// Live verdict totals: sum of the per-shard snapshots, each published
  /// after a processed batch. Exact once finish() returned.
  [[nodiscard]] match::Partition partition() const;

  /// One user's verdict share and interarrival statistics, exact as of
  /// everything pushed so far (implicit drain(); producer thread only).
  /// nullopt when the engine has never seen the user.
  [[nodiscard]] std::optional<UserVerdicts> user_verdicts(trace::UserId user);

  /// Every tracked user, globally sorted by id (implicit drain(); producer
  /// thread only). Sums of the per-user partitions equal partition().
  [[nodiscard]] std::vector<UserVerdicts> all_user_verdicts();

  /// Users tracked across all shards (implicit drain(); producer thread
  /// only).
  [[nodiscard]] std::size_t user_count();

  /// True when the engine was configured with a scoring model.
  [[nodiscard]] bool scoring_enabled() const {
    return config_.model != nullptr;
  }

  /// One user's live detection score (implicit drain(); producer thread
  /// only). nullopt when scoring is disabled or the user has no applied
  /// checkins. The `score` field is bit-identical to averaging the batch
  /// detector's per-checkin scores over the same trace.
  [[nodiscard]] std::optional<score::UserScoreSnapshot> user_score(
      trace::UserId user);

  /// Engine-wide top-k suspects, merged across shards (score desc, user
  /// id asc; implicit drain(); producer thread only).
  /// Empty when scoring is disabled. Byte-deterministic: independent of
  /// shard count and producer interleaving.
  [[nodiscard]] std::vector<score::SuspectEntry> top_suspects(std::size_t k);

  /// Events fully processed by the workers (not merely enqueued),
  /// quarantined ones included; covered replays are not.
  [[nodiscard]] std::size_t events_processed() const;

  /// Events the workers skipped as covered replays (restore_coverage()).
  [[nodiscard]] std::size_t events_replayed() const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of(trace::UserId user) const;
  [[nodiscard]] const StreamEngineConfig& config() const { return config_; }

 private:
  struct Shard;

  [[nodiscard]] std::uint64_t config_fingerprint() const;

  StreamEngineConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::optional<Producer> producer_;  ///< push()'s handle, built after shards_
  /// Events pushed across all producers; atomic only so concurrent
  /// Producer handles may bump it without a lock.
  std::atomic<std::uint64_t> pushed_{0};
  std::size_t last_state_bytes_ = 0;  ///< previous save_state() payload size
  bool finished_ = false;
};

}  // namespace geovalid::stream
