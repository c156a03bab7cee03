#include "trace/visit_detector.h"

#include <cmath>

#include "geo/geodesic.h"
#include "trace/poi_grid.h"

namespace geovalid::trace {
namespace {

/// Incrementally maintained centroid of the fixed samples in the current
/// candidate window.
class Centroid {
 public:
  void add(const geo::LatLon& p) {
    lat_sum_ += p.lat_deg;
    lon_sum_ += p.lon_deg;
    ++n_;
  }
  void reset() { *this = Centroid{}; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] geo::LatLon value() const {
    return geo::LatLon{lat_sum_ / static_cast<double>(n_),
                       lon_sum_ / static_cast<double>(n_)};
  }

 private:
  double lat_sum_ = 0.0;
  double lon_sum_ = 0.0;
  std::size_t n_ = 0;
};

}  // namespace

VisitDetector::VisitDetector(VisitDetectorConfig config)
    : config_(config) {}

std::vector<Visit> VisitDetector::detect(const GpsTrace& trace) const {
  std::vector<Visit> visits;
  const auto points = trace.points();
  if (points.empty()) return visits;

  const std::vector<MotionState> motion =
      classify_motion(points, config_.stationary);

  Centroid centroid;
  TimeSec window_start = 0;
  TimeSec window_end = 0;
  bool in_window = false;

  auto flush = [&] {
    if (in_window && !centroid.empty() &&
        window_end - window_start >= config_.min_duration) {
      visits.push_back(Visit{window_start, window_end, centroid.value()});
    }
    centroid.reset();
    in_window = false;
  };

  for (std::size_t i = 0; i < points.size(); ++i) {
    const GpsPoint& p = points[i];

    if (in_window && p.t - window_end > config_.max_sample_gap) {
      flush();
    }

    if (!p.has_fix) {
      // Sensor evidence decides whether an ongoing stay continues.
      if (!in_window) continue;
      if (motion[i] == MotionState::kMoving) {
        flush();
      } else {
        // Stationary or unknown: optimistically extend; a later far-away fix
        // will terminate the window anyway.
        window_end = p.t;
      }
      continue;
    }

    if (!in_window) {
      centroid.reset();
      centroid.add(p.position);
      window_start = window_end = p.t;
      in_window = true;
      continue;
    }

    if (geo::fast_distance_within(centroid.value(), p.position,
                                  config_.radius_m)) {
      centroid.add(p.position);
      window_end = p.t;
    } else {
      flush();
      centroid.add(p.position);
      window_start = window_end = p.t;
      in_window = true;
    }
  }
  flush();
  return visits;
}

void VisitDetector::snap_to_pois(std::vector<Visit>& visits,
                                 const PoiIndex& pois,
                                 double snap_radius_m) const {
  const PoiGrid grid(pois.all(), std::max(snap_radius_m, 100.0));
  for (Visit& v : visits) {
    v.poi = grid.nearest(v.centroid, snap_radius_m).value_or(kNoPoi);
  }
}

}  // namespace geovalid::trace
