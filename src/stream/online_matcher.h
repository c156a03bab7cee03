// Incremental §4 validation for one user: bounded-memory matching plus the
// §5.1 extraneous-checkin taxonomy, with verdicts emitted as soon as they
// are safe.
//
// The batch pipeline (match::validate_dataset) sees a user's complete
// checkin and visit arrays at once. Online, neither side is complete: a
// checkin may still match a visit whose stay is in progress, and a visit
// may still be claimed by a checkin that has not happened yet. The matcher
// therefore keeps a *pending window* per user and finalizes it the moment
// the matching thresholds rule out any interaction with the future:
//
//   - a future checkin (time >= watermark) can match a pending visit v only
//     if watermark < v.end + beta;
//   - a future visit (start >= barrier, where the barrier is the open
//     stay-window start reported by OnlineVisitDetector, or the watermark
//     when no stay is open) can match a pending checkin c only if
//     barrier < c.t + beta.
//
// When neither holds for anything pending, the window is a closed group: no
// candidate edge crosses its boundary, so running the exact batch algorithm
// (match::match_user) on the group alone yields the same assignment the
// batch run would. Summing group results therefore reproduces the batch
// partition *exactly* — the engine's keystone invariant, enforced on whole
// studies by tests/test_stream_engine.cpp.
//
// Memory is O(pending window), which the matching thresholds bound: a group
// stays open only while events keep arriving within beta of each other
// (plus the span of an ongoing stay), so state decays to zero across any
// quiet period — e.g. nightly, when phones stop recording. Nothing is
// proportional to trace length.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "match/classifier.h"
#include "match/matcher.h"
#include "match/pipeline.h"
#include "stream/snapshot_io.h"

namespace geovalid::stream {

class OnlineMatcher {
 public:
  /// What the owning shard lends every call: the engine's one copy of the
  /// thresholds, and the shard's running verdict totals. Each verdict is
  /// counted into the totals and into this user's share when it is decided,
  /// so the shard never diffs a user's partition to keep its own.
  struct Context {
    const match::MatchConfig& match;
    const match::ClassifierConfig& classifier;
    match::Partition& totals;
  };

  /// Feeds the user's next checkin (non-decreasing timestamps).
  void push_checkin(const trace::Checkin& c, const Context& ctx) {
    count(&match::Partition::checkins, ctx);
    pending_checkins_.push_back(c);
  }

  /// Feeds a visit closed by the visit detector (emission order).
  void push_visit(const trace::Visit& v, const Context& ctx) {
    count(&match::Partition::visits, ctx);
    pending_visits_.push_back(v);
  }

  /// Feeds a raw GPS sample — classification evidence only; visit detection
  /// happens upstream. Must be called for every sample, in time order.
  void observe_gps(const trace::GpsPoint& p, const Context& ctx) {
    if (total_gps_ == 0) first_gps_t_ = p.t;
    ++total_gps_;
    last_gps_t_ = p.t;
    gps_window_.push_back(p);
    if (!deferred_.empty()) resolve_deferred(p.t, ctx);
  }

  /// Advances event time. `watermark` is the timestamp of the event just
  /// processed; `visit_start_barrier` is the earliest start any future
  /// visit can have (the detector's open-window start, or the watermark).
  /// Finalizes the pending window when it can no longer match the future.
  void advance(trace::TimeSec watermark, trace::TimeSec visit_start_barrier,
               const Context& ctx) {
    watermark_ = saw_event_ ? std::max(watermark_, watermark) : watermark;
    saw_event_ = true;
    const trace::TimeSec beta = ctx.match.beta;
    const bool checkins_safe =
        pending_checkins_.empty() ||
        pending_checkins_.back().t + beta <= visit_start_barrier;
    const bool visits_safe = pending_visits_.empty() ||
                             pending_visits_.back().end + beta <= watermark_;
    if ((!pending_checkins_.empty() || !pending_visits_.empty()) &&
        checkins_safe && visits_safe) {
      finalize_pending(/*at_end=*/false, ctx);
    }
    prune_gps_window(ctx.classifier.max_gps_gap);
  }

  /// End of stream: finalizes everything still pending.
  void finish(const Context& ctx);

  /// This user's share of the partition: every verdict counted so far.
  [[nodiscard]] const match::Partition& verdicts() const { return verdicts_; }

  // Introspection (tests assert the memory bound through these).
  [[nodiscard]] std::size_t pending_checkins() const {
    return pending_checkins_.size();
  }
  [[nodiscard]] std::size_t pending_visits() const {
    return pending_visits_.size();
  }
  [[nodiscard]] std::size_t deferred_classifications() const {
    return deferred_.size();
  }
  [[nodiscard]] std::size_t gps_buffer_size() const {
    return gps_window_.size();
  }

  /// Checkpoint support: serializes the full pending window (checkins,
  /// visits, deferred classifications, pruned GPS buffer) plus the
  /// watermark, so a load()ed matcher emits exactly the verdicts the
  /// uninterrupted run would have. The user's share is stored apart from
  /// the window, and restored through restore_verdicts().
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);
  void restore_verdicts(const match::Partition& verdicts) {
    verdicts_ = verdicts;
  }

 private:
  /// A FIFO on one vector: pop_front() advances `head` and erases the dead
  /// prefix once it is as long as the live part, so the live part stays
  /// contiguous, a pop is amortized O(1) and an unused queue allocates
  /// nothing. Iteration runs oldest first, as the checkpoint layout wants.
  template <typename T>
  struct Fifo {
    std::vector<T> items;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const { return head == items.size(); }
    [[nodiscard]] std::size_t size() const { return items.size() - head; }
    [[nodiscard]] const T& front() const { return items[head]; }
    auto begin() const { return items.begin() + std::ptrdiff_t(head); }
    auto end() const { return items.end(); }
    void push_back(const T& v) { items.push_back(v); }
    void pop_front() {
      if (2 * ++head < items.size()) return;
      items.erase(items.begin(), begin());
      head = 0;
    }
  };

  /// Counts one verdict into this user's share and the shard's totals.
  void count(std::size_t match::Partition::*field, const Context& ctx) {
    ++(verdicts_.*field);
    ++(ctx.totals.*field);
  }
  void count(match::CheckinClass label, const Context& ctx) {
    const auto c = static_cast<std::size_t>(label);
    ++verdicts_.by_class[c];
    ++ctx.totals.by_class[c];
  }

  /// Classifies every deferred checkin whose speed bracket the sample at
  /// `t` closes (deferred entries are in time order).
  void resolve_deferred(trace::TimeSec t, const Context& ctx);
  void finalize_pending(bool at_end, const Context& ctx);
  void resolve_or_defer(const trace::Checkin& c, bool at_end,
                        const Context& ctx);
  /// Drops the samples no classification can consult any more: those
  /// older than max_gps_gap before the oldest unresolved checkin (or the
  /// watermark), keeping the last two for the end-of-trace speed segment.
  void prune_gps_window(trace::TimeSec max_gps_gap) {
    trace::TimeSec oldest = watermark_;
    if (!pending_checkins_.empty()) {
      oldest = std::min(oldest, pending_checkins_.front().t);
    }
    if (!deferred_.empty()) oldest = std::min(oldest, deferred_.front().t);
    const trace::TimeSec cutoff = oldest - max_gps_gap;
    while (gps_window_.size() > 2 && gps_window_.front().t < cutoff) {
      gps_window_.pop_front();
    }
  }

  /// Exact replica of match::classify_user's per-checkin logic against the
  /// retained sample window. nullopt = the verdict needs the first GPS
  /// sample after c.t, which has not arrived (never returned when at_end).
  [[nodiscard]] std::optional<match::CheckinClass> classify_now(
      const trace::Checkin& c, bool at_end,
      const match::ClassifierConfig& config) const;

  /// Exact replica of trace::GpsTrace::speed_at over the full sample
  /// history (the window invariant keeps every sample it consults).
  [[nodiscard]] double speed_at(trace::TimeSec t) const;

  match::Partition verdicts_;
  trace::TimeSec watermark_ = 0;
  bool saw_event_ = false;

  // The pending window. Checkins are in time order; visits in emission
  // order (stay-points are disjoint, so also start- and end-ordered).
  std::vector<trace::Checkin> pending_checkins_;
  std::vector<trace::Visit> pending_visits_;

  // Extraneous checkins whose driveby-vs-superfluous verdict waits for the
  // GPS sample closing their speed bracket. Through the engine that is only
  // at beta = 0: with beta > 0 a checkin c finalizes at an event at or after
  // c.t + beta, a GPS event there has already closed c's bracket, and a
  // checkin event is itself pending; so by default this stays empty.
  Fifo<trace::Checkin> deferred_;

  // Recent GPS samples, pruned to those the classifier may still consult:
  // everything newer than (oldest unresolved checkin - max_gps_gap), plus
  // the last two samples for the end-of-trace speed segment.
  Fifo<trace::GpsPoint> gps_window_;
  std::size_t total_gps_ = 0;
  trace::TimeSec first_gps_t_ = 0;
  trace::TimeSec last_gps_t_ = 0;
};

}  // namespace geovalid::stream
