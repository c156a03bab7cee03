#include "synth/checkin_model.h"

#include <algorithm>
#include <cmath>

#include "geo/geodesic.h"

namespace geovalid::synth {
namespace {

using trace::Checkin;
using trace::TimeSec;
using trace::minutes;

/// Geometric draw >= 1 with the given mean (mean must be >= 1).
std::uint32_t geometric_at_least_one(stats::Rng& rng, double mean) {
  const double extra = std::max(0.0, mean - 1.0);
  const double p = 1.0 / (1.0 + extra);  // success prob of the tail draw
  std::uint32_t n = 1;
  while (n < 8 && !rng.bernoulli(p)) ++n;
  return n;
}

Checkin make_checkin(const CityView& city, std::uint32_t poi_index,
                     TimeSec t) {
  const trace::Poi& poi = city.pois[poi_index];
  Checkin c;
  c.t = t;
  c.poi = poi.id;
  c.category = poi.category;
  c.location = poi.location;
  return c;
}

/// Maps a grid-returned PoiId back to its index (generator invariant:
/// id == index + 1, verified).
std::optional<std::uint32_t> index_of(const CityView& city, trace::PoiId id) {
  const std::size_t idx = id - 1;
  if (idx < city.pois.size() && city.pois[idx].id == id) {
    return static_cast<std::uint32_t>(idx);
  }
  return std::nullopt;
}

/// Ground-truth position of the user at time t (venue of the active stay or
/// interpolation along the active trip).
geo::LatLon true_position(const CityView& city, const Itinerary& it,
                          TimeSec t) {
  const auto& stays = it.stays;
  // Binary search for the last stay with arrive <= t.
  auto cmp = [](const Stay& s, TimeSec v) { return s.arrive <= v; };
  const auto upper = std::partition_point(stays.begin(), stays.end(),
                                          [&](const Stay& s) { return cmp(s, t); });
  if (upper == stays.begin()) return city.pois[stays.front().poi_index].location;
  const Stay& s = *std::prev(upper);
  if (t <= s.depart || upper == stays.end()) {
    return city.pois[s.poi_index].location;
  }
  const Stay& next = *upper;
  const double total = static_cast<double>(next.arrive - s.depart);
  const double frac =
      total <= 0.0
          ? 1.0
          : std::clamp(static_cast<double>(t - s.depart) / total, 0.0, 1.0);
  const geo::LatLon a = city.pois[s.poi_index].location;
  const geo::LatLon b = city.pois[next.poi_index].location;
  return geo::LatLon{a.lat_deg + frac * (b.lat_deg - a.lat_deg),
                     a.lon_deg + frac * (b.lon_deg - a.lon_deg)};
}

}  // namespace

std::vector<LabeledCheckin> generate_checkins(
    const StudyConfig& config, const CityView& city, const Persona& persona,
    const Itinerary& itinerary, const MovementResult& movement,
    stats::Rng& rng) {
  std::vector<LabeledCheckin> out;
  const BehaviorConfig& bc = config.behavior;
  const Traits& traits = persona.traits;
  const double act = std::min(traits.activity, 2.2);

  // --- Honest + superfluous (visit-anchored) ------------------------------
  for (const Stay& stay : itinerary.stays) {
    if (stay.depart - stay.arrive < minutes(6)) continue;
    const trace::Poi& venue = city.pois[stay.poi_index];
    const double p_honest =
        bc.honest_checkin_prob[static_cast<std::size_t>(venue.category)] *
        bc.honest_scale * act;
    if (!rng.bernoulli(p_honest)) continue;

    const TimeSec latest =
        std::min(stay.depart, stay.arrive + minutes(12));
    const TimeSec tc = stay.arrive + minutes(1) +
                       static_cast<TimeSec>(rng.uniform(
                           0.0, static_cast<double>(
                                    std::max<TimeSec>(1, latest - stay.arrive -
                                                             minutes(1)))));
    // People mostly check in while their phone is active (= recording).
    const bool recorded =
        std::any_of(itinerary.windows.begin(), itinerary.windows.end(),
                    [&](const RecordingWindow& w) {
                      return tc >= w.start && tc <= w.end;
                    });
    if (!recorded && rng.bernoulli(bc.honest_recorded_bias)) continue;
    out.push_back({make_checkin(city, stay.poi_index, tc),
                   TrueBehavior::kHonest});

    // Mayor farmers pad the visit with checkins at neighbouring venues
    // (and sometimes the same venue again).
    const double p_super =
        std::min(0.95, bc.superfluous_prob_per_honest * traits.mayor_farmer);
    if (!rng.bernoulli(p_super)) continue;

    const auto nearby = city.grid->within(venue.location, 350.0);
    const std::uint32_t burst =
        geometric_at_least_one(rng, bc.superfluous_mean_events);
    TimeSec ts = tc;
    for (std::uint32_t k = 0; k < burst; ++k) {
      ts += static_cast<TimeSec>(rng.uniform(12.0, 70.0));
      if (ts >= stay.depart) break;
      std::uint32_t target = stay.poi_index;  // same-venue repeat by default
      if (!nearby.empty() && rng.bernoulli(0.7)) {
        const trace::PoiId id = nearby[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(nearby.size()) - 1))];
        if (const auto idx = index_of(city, id); idx && *idx != stay.poi_index) {
          target = *idx;
        }
      }
      out.push_back({make_checkin(city, target, ts),
                     TrueBehavior::kSuperfluous});
    }
  }

  // --- Remote sessions (badge hunting) ------------------------------------
  const double remote_rate =
      bc.remote_sessions_per_day * traits.badge_hunter * act;
  for (std::size_t day = 0; day < persona.study_days; ++day) {
    const TimeSec midnight =
        config.study_start + trace::days(static_cast<TimeSec>(day));
    const auto sessions = rng.poisson(remote_rate);
    for (std::uint64_t s = 0; s < sessions; ++s) {
      const bool offline = rng.bernoulli(bc.remote_offline_fraction);
      // Offline sessions land after the recording window (late evening);
      // online ones any time during the active day.
      const double hour = offline ? rng.uniform(21.6, 23.8)
                                  : rng.uniform(9.5, 19.5);
      TimeSec ts = midnight + static_cast<TimeSec>(hour * 3600.0);
      const geo::LatLon here = true_position(city, itinerary, ts);

      const std::uint32_t burst =
          geometric_at_least_one(rng, bc.remote_session_mean_events);
      for (std::uint32_t k = 0; k < burst; ++k) {
        // Pick any venue far from the true position (badge lists span the
        // whole city).
        for (int attempt = 0; attempt < 16; ++attempt) {
          const auto idx = static_cast<std::uint32_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(city.pois.size()) - 1));
          if (geo::fast_distance_m(here, city.pois[idx].location) > 650.0) {
            out.push_back({make_checkin(city, idx, ts), TrueBehavior::kRemote});
            break;
          }
        }
        ts += static_cast<TimeSec>(rng.uniform(8.0, 50.0));
      }
    }
  }

  // --- Driveby checkins (commuters) ----------------------------------------
  // Scales superlinearly with activity: very active users checkin on the
  // move far more often (Table 2 pairs driveby with a *positive*
  // checkins-per-day correlation despite its negative badge/mayor columns).
  const double p_driveby = std::min(
      0.9, bc.driveby_prob_per_trip * traits.commuter * std::pow(act, 1.8));
  auto trip_recorded = [&](const Trip& trip) {
    for (const RecordingWindow& w : itinerary.windows) {
      if (trip.depart >= w.start && trip.arrive <= w.end) return true;
    }
    return false;
  };
  for (const Trip& trip : movement.trips) {
    if (trip.speed_mps < 2.5) continue;  // walking trips don't qualify
    if (trip.arrive - trip.depart < minutes(4)) continue;
    if (!trip_recorded(trip)) continue;
    if (!rng.bernoulli(p_driveby)) continue;

    const std::uint32_t events = rng.bernoulli(0.25) ? 2 : 1;
    for (std::uint32_t k = 0; k < events; ++k) {
      const double frac = rng.uniform(0.2, 0.8);
      const TimeSec tc =
          trip.depart + static_cast<TimeSec>(
                            frac * static_cast<double>(trip.arrive - trip.depart));
      const geo::LatLon pos = true_position(city, itinerary, tc);
      const auto nearby = city.grid->within(pos, 450.0);
      if (nearby.empty()) continue;
      const trace::PoiId id = nearby[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(nearby.size()) - 1))];
      if (const auto idx = index_of(city, id)) {
        out.push_back({make_checkin(city, *idx, tc), TrueBehavior::kDriveby});
      }
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const LabeledCheckin& a, const LabeledCheckin& b) {
                     return a.checkin.t < b.checkin.t;
                   });
  return out;
}

}  // namespace geovalid::synth
