#include "stream/online_visit_detector.h"

#include "geo/geodesic.h"

namespace geovalid::stream {

trace::MotionState OnlineVisitDetector::classify(
    const trace::GpsPoint& p, const trace::StationaryConfig& config) {
  // Incremental transcription of trace::classify_motion: the WiFi run
  // counter is the only state carried between samples.
  if (has_prev_sample_ && p.wifi_fingerprint != 0 &&
      p.wifi_fingerprint == prev_fingerprint_) {
    ++wifi_run_;
  } else {
    wifi_run_ = 0;
  }
  has_prev_sample_ = true;
  prev_fingerprint_ = p.wifi_fingerprint;

  if (p.has_fix) return trace::MotionState::kUnknown;  // GPS logic decides

  const bool accel_quiet = p.accel_variance <= config.accel_variance_max;
  const bool wifi_stable = wifi_run_ >= config.wifi_stable_samples;

  if (accel_quiet && (wifi_stable || p.wifi_fingerprint != 0)) {
    return trace::MotionState::kStationary;
  }
  if (!accel_quiet) return trace::MotionState::kMoving;
  return trace::MotionState::kUnknown;
}

std::optional<trace::Visit> OnlineVisitDetector::close_window(
    const trace::VisitDetectorConfig& config) {
  std::optional<trace::Visit> emitted;
  if (in_window_ && fix_count_ > 0 &&
      window_end_ - window_start_ >= config.min_duration) {
    const auto n = static_cast<double>(fix_count_);
    emitted = trace::Visit{window_start_, window_end_,
                           geo::LatLon{lat_sum_ / n, lon_sum_ / n}};
  }
  lat_sum_ = lon_sum_ = 0.0;
  fix_count_ = 0;
  in_window_ = false;
  return emitted;
}

std::optional<trace::Visit> OnlineVisitDetector::push(
    const trace::GpsPoint& p, const trace::VisitDetectorConfig& config) {
  const trace::MotionState motion = classify(p, config.stationary);

  std::optional<trace::Visit> emitted;
  if (in_window_ && p.t - window_end_ > config.max_sample_gap) {
    emitted = close_window(config);
  }

  if (!p.has_fix) {
    // Sensor evidence decides whether an ongoing stay continues.
    if (!in_window_) return emitted;
    if (motion == trace::MotionState::kMoving) {
      auto closed = close_window(config);
      if (closed) emitted = closed;
    } else {
      // Stationary or unknown: optimistically extend; a later far-away fix
      // will terminate the window anyway.
      window_end_ = p.t;
    }
    return emitted;
  }

  if (!in_window_) {
    lat_sum_ = p.position.lat_deg;
    lon_sum_ = p.position.lon_deg;
    fix_count_ = 1;
    window_start_ = window_end_ = p.t;
    in_window_ = true;
    return emitted;
  }

  const auto n = static_cast<double>(fix_count_);
  const geo::LatLon centroid{lat_sum_ / n, lon_sum_ / n};
  if (geo::fast_distance_within(centroid, p.position, config.radius_m)) {
    lat_sum_ += p.position.lat_deg;
    lon_sum_ += p.position.lon_deg;
    ++fix_count_;
    window_end_ = p.t;
  } else {
    auto closed = close_window(config);
    if (closed) emitted = closed;
    lat_sum_ = p.position.lat_deg;
    lon_sum_ = p.position.lon_deg;
    fix_count_ = 1;
    window_start_ = window_end_ = p.t;
    in_window_ = true;
  }
  return emitted;
}

std::optional<trace::Visit> OnlineVisitDetector::finish(
    const trace::VisitDetectorConfig& config) {
  auto emitted = close_window(config);
  has_prev_sample_ = false;
  prev_fingerprint_ = 0;
  wifi_run_ = 0;
  return emitted;
}

void OnlineVisitDetector::save(SnapshotWriter& w) const {
  w.boolean(has_prev_sample_);
  w.u32(prev_fingerprint_);
  w.u64(wifi_run_);
  w.boolean(in_window_);
  w.f64(lat_sum_);
  w.f64(lon_sum_);
  w.u64(fix_count_);
  w.i64(window_start_);
  w.i64(window_end_);
}

void OnlineVisitDetector::load(SnapshotReader& r) {
  has_prev_sample_ = r.boolean();
  prev_fingerprint_ = r.u32();
  wifi_run_ = static_cast<std::size_t>(r.u64());
  in_window_ = r.boolean();
  lat_sum_ = r.f64();
  lon_sum_ = r.f64();
  fix_count_ = static_cast<std::size_t>(r.u64());
  window_start_ = r.i64();
  window_end_ = r.i64();
}

}  // namespace geovalid::stream
