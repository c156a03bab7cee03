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

#include <optional>
#include <vector>

#include "match/classifier.h"
#include "match/matcher.h"
#include "match/pipeline.h"
#include "stream/snapshot_io.h"

namespace geovalid::stream {

class OnlineMatcher {
 public:
  /// Verdict counts are accumulated straight into `sink` (typically the
  /// owning shard's partition), so aggregation costs nothing per event.
  OnlineMatcher(const match::MatchConfig& match_config,
                const match::ClassifierConfig& classifier_config,
                match::Partition& sink);

  /// Feeds the user's next checkin (non-decreasing timestamps).
  void push_checkin(const trace::Checkin& c);

  /// Feeds a visit closed by the visit detector (emission order).
  void push_visit(const trace::Visit& v);

  /// Feeds a raw GPS sample — classification evidence only; visit detection
  /// happens upstream. Must be called for every sample, in time order.
  void observe_gps(const trace::GpsPoint& p);

  /// Advances event time. `watermark` is the timestamp of the event just
  /// processed; `visit_start_barrier` is the earliest start any future
  /// visit can have (the detector's open-window start, or the watermark).
  /// Finalizes the pending window when it can no longer match the future.
  void advance(trace::TimeSec watermark, trace::TimeSec visit_start_barrier);

  /// End of stream: finalizes everything still pending.
  void finish();

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
  /// uninterrupted run would have. Config and sink are not serialized —
  /// the restoring engine provides both.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

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

  void finalize_pending(bool at_end);
  void resolve_or_defer(const trace::Checkin& c, bool at_end);
  void prune_gps_window();

  /// Exact replica of match::classify_user's per-checkin logic against the
  /// retained sample window. nullopt = the verdict needs the first GPS
  /// sample after c.t, which has not arrived (never returned when at_end).
  [[nodiscard]] std::optional<match::CheckinClass> classify_now(
      const trace::Checkin& c, bool at_end) const;

  /// Exact replica of trace::GpsTrace::speed_at over the full sample
  /// history (the window invariant keeps every sample it consults).
  [[nodiscard]] double speed_at(trace::TimeSec t) const;

  match::MatchConfig match_config_;
  match::ClassifierConfig classifier_config_;
  match::Partition* sink_;

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
