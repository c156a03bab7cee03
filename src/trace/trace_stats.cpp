#include "trace/trace_stats.h"

#include <map>

#include "geo/geodesic.h"
#include "stats/entropy.h"

namespace geovalid::trace {

std::vector<double> visit_interarrivals_min(const Dataset& ds) {
  std::vector<double> pooled;
  for (const UserRecord& u : ds.users()) {
    for (std::size_t i = 1; i < u.visits.size(); ++i) {
      const TimeSec gap = u.visits[i].start - u.visits[i - 1].end;
      if (gap >= 0) pooled.push_back(to_minutes(gap));
    }
  }
  return pooled;
}

std::vector<double> checkin_movement_km(const Dataset& ds) {
  std::vector<double> pooled;
  for (const UserRecord& u : ds.users()) {
    const auto events = u.checkins.events();
    for (std::size_t i = 1; i < events.size(); ++i) {
      pooled.push_back(geo::distance_m(events[i - 1].location,
                                       events[i].location) /
                       geo::kMetersPerKilometer);
    }
  }
  return pooled;
}

std::vector<double> visit_movement_km(const Dataset& ds) {
  std::vector<double> pooled;
  for (const UserRecord& u : ds.users()) {
    for (std::size_t i = 1; i < u.visits.size(); ++i) {
      pooled.push_back(geo::distance_m(u.visits[i - 1].centroid,
                                       u.visits[i].centroid) /
                       geo::kMetersPerKilometer);
    }
  }
  return pooled;
}

std::vector<double> checkin_speeds_mps(const Dataset& ds) {
  std::vector<double> pooled;
  for (const UserRecord& u : ds.users()) {
    const auto events = u.checkins.events();
    for (std::size_t i = 1; i < events.size(); ++i) {
      const auto dt = static_cast<double>(events[i].t - events[i - 1].t);
      if (dt <= 0.0) continue;
      pooled.push_back(
          geo::distance_m(events[i - 1].location, events[i].location) / dt);
    }
  }
  return pooled;
}

std::vector<double> checkin_frequency_per_day(const Dataset& ds) {
  std::vector<double> freqs;
  for (const UserRecord& u : ds.users()) {
    if (u.checkins.size() >= 2) freqs.push_back(u.checkins.events_per_day());
  }
  return freqs;
}

namespace {

double entropy_of_place_counts(const std::map<PoiId, std::size_t>& counts,
                               std::size_t anonymous_places) {
  std::vector<std::size_t> ns;
  ns.reserve(counts.size() + anonymous_places);
  for (const auto& [poi, n] : counts) ns.push_back(n);
  // Each unsnapped visit is its own singleton place.
  for (std::size_t i = 0; i < anonymous_places; ++i) ns.push_back(1);
  return stats::entropy_bits(ns);
}

}  // namespace

std::vector<double> checkin_poi_entropy_bits(const Dataset& ds) {
  std::vector<double> out;
  for (const UserRecord& u : ds.users()) {
    if (u.checkins.empty()) continue;
    std::map<PoiId, std::size_t> counts;
    for (const Checkin& c : u.checkins.events()) ++counts[c.poi];
    out.push_back(entropy_of_place_counts(counts, 0));
  }
  return out;
}

std::vector<double> visit_poi_entropy_bits(const Dataset& ds) {
  std::vector<double> out;
  for (const UserRecord& u : ds.users()) {
    if (u.visits.empty()) continue;
    std::map<PoiId, std::size_t> counts;
    std::size_t anonymous = 0;
    for (const Visit& v : u.visits) {
      if (v.poi == kNoPoi) {
        ++anonymous;
      } else {
        ++counts[v.poi];
      }
    }
    out.push_back(entropy_of_place_counts(counts, anonymous));
  }
  return out;
}

}  // namespace geovalid::trace
