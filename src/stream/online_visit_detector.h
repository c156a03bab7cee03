// Incremental stay-point detection: the push-API twin of
// trace::VisitDetector.
//
// The batch detector scans a complete GpsTrace; this one accepts samples
// one at a time and emits each visit the moment a later sample (or the end
// of the stream) closes its window. For any sample sequence, the visits
// emitted here are byte-identical to VisitDetector::detect over the same
// sequence — the streaming engine's batch-equivalence guarantee rests on
// that property, which tests/test_stream_visits.cpp enforces over random
// traces.
//
// State is O(1) per user: the running window centroid, the window bounds,
// and the previous sample's WiFi fingerprint (the stationary classifier's
// only cross-sample dependency). The thresholds are not state: the caller
// passes its one shared config into every call.
#pragma once

#include <optional>

#include "stream/snapshot_io.h"
#include "trace/visit_detector.h"

namespace geovalid::stream {

class OnlineVisitDetector {
 public:
  /// Feeds the next sample (timestamps must be non-decreasing; mirrors
  /// GpsTrace order). Returns the visit this sample closed, if any. The
  /// config is the engine's one copy, passed on every call.
  std::optional<trace::Visit> push(const trace::GpsPoint& p,
                                   const trace::VisitDetectorConfig& config);

  /// Ends the stream: closes and possibly emits the in-progress window.
  /// The detector is reusable afterwards (state fully reset).
  std::optional<trace::Visit> finish(const trace::VisitDetectorConfig& config);

  /// Start time of the in-progress candidate window, if one is open. Any
  /// visit emitted in the future starts at or after this time — the
  /// matcher's finalization barrier depends on it.
  [[nodiscard]] std::optional<trace::TimeSec> open_window_start() const {
    if (!in_window_) return std::nullopt;
    return window_start_;
  }

  /// Checkpoint support: serializes every cross-sample field (classifier
  /// run state + candidate window), so a load()ed detector continues the
  /// stream bit-identically to one that never stopped.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  [[nodiscard]] trace::MotionState classify(
      const trace::GpsPoint& p, const trace::StationaryConfig& config);
  [[nodiscard]] std::optional<trace::Visit> close_window(
      const trace::VisitDetectorConfig& config);

  // Stationary-classifier state (see trace::classify_motion): the previous
  // fingerprint and the length of the current run of consecutive samples
  // sharing a non-zero one. Then the candidate window (see
  // VisitDetector::detect), whose flag shares a word with the other flag.
  bool has_prev_sample_ = false;
  bool in_window_ = false;
  std::uint32_t prev_fingerprint_ = 0;
  std::size_t wifi_run_ = 0;
  double lat_sum_ = 0.0;
  double lon_sum_ = 0.0;
  std::size_t fix_count_ = 0;
  trace::TimeSec window_start_ = 0;
  trace::TimeSec window_end_ = 0;
};

}  // namespace geovalid::stream
