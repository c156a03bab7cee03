#include "detect/features.h"

#include <cmath>
#include <map>

#include "geo/geodesic.h"

namespace geovalid::detect {
namespace {

constexpr double kTau = 6.28318530717958647692;

double log1p_safe(double x) { return std::log1p(std::max(0.0, x)); }

}  // namespace

std::span<const std::string_view> feature_names() {
  static constexpr std::array<std::string_view, kFeatureCount> kNames{
      "log_gap_prev_min", "log_gap_next_min", "burst_neighbors_10min",
      "hour_sin",         "hour_cos",         "is_weekend",
      "log_dist_centroid_km", "log_dist_prev_km", "log_speed_prev_mps",
      "venue_repeat_count",   "category_share",   "log_checkins_per_day",
  };
  return kNames;
}

std::vector<FeatureVector> extract_features(const trace::UserRecord& user) {
  const auto events = user.checkins.events();
  std::vector<FeatureVector> out(events.size());
  if (events.empty()) return out;

  // --- Per-user aggregates -------------------------------------------------
  double lat_sum = 0.0, lon_sum = 0.0;
  std::map<trace::PoiId, std::size_t> venue_counts;
  std::array<std::size_t, trace::kPoiCategoryCount> category_counts{};
  for (const trace::Checkin& c : events) {
    lat_sum += c.location.lat_deg;
    lon_sum += c.location.lon_deg;
    ++venue_counts[c.poi];
    ++category_counts[static_cast<std::size_t>(c.category)];
  }
  const geo::LatLon centroid{lat_sum / static_cast<double>(events.size()),
                             lon_sum / static_cast<double>(events.size())};
  const double per_day = user.checkins.events_per_day();

  // --- Per-checkin features ------------------------------------------------
  for (std::size_t i = 0; i < events.size(); ++i) {
    const trace::Checkin& c = events[i];
    FeatureVector& f = out[i];

    const double gap_prev =
        i == 0 ? 1e6 : trace::to_minutes(c.t - events[i - 1].t);
    const double gap_next = i + 1 == events.size()
                                ? 1e6
                                : trace::to_minutes(events[i + 1].t - c.t);
    f[0] = log1p_safe(gap_prev);
    f[1] = log1p_safe(gap_next);

    std::size_t burst = 0;
    for (std::size_t j = i; j-- > 0;) {
      if (c.t - events[j].t > trace::minutes(10)) break;
      ++burst;
    }
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].t - c.t > trace::minutes(10)) break;
      ++burst;
    }
    f[2] = static_cast<double>(burst);

    const double hour =
        static_cast<double>(c.t % trace::kSecondsPerDay) / 3600.0;
    f[3] = std::sin(kTau * hour / 24.0);
    f[4] = std::cos(kTau * hour / 24.0);
    // Study starts on a Tuesday; days 4 and 5 of each week are weekend
    // (same convention as the generator's schedule).
    const auto day_index =
        static_cast<std::size_t>(c.t / trace::kSecondsPerDay);
    const std::size_t dow = day_index % 7;
    f[5] = (dow == 4 || dow == 5) ? 1.0 : 0.0;

    f[6] = log1p_safe(geo::distance_m(c.location, centroid) /
                      geo::kMetersPerKilometer);
    if (i == 0) {
      f[7] = 0.0;
      f[8] = 0.0;
    } else {
      const double d = geo::distance_m(c.location, events[i - 1].location);
      f[7] = log1p_safe(d / geo::kMetersPerKilometer);
      const double dt = static_cast<double>(c.t - events[i - 1].t);
      f[8] = dt <= 0.0 ? log1p_safe(1e4) : log1p_safe(d / dt);
    }

    f[9] = static_cast<double>(venue_counts[c.poi]);
    const std::size_t cat_count =
        category_counts[static_cast<std::size_t>(c.category)];
    f[10] = static_cast<double>(cat_count) /
            static_cast<double>(events.size());
    f[11] = log1p_safe(per_day);
  }
  return out;
}

}  // namespace geovalid::detect
