// Mobility metrics over traces — the comparison toolkit of §4.1.
//
// The paper validates the honest-checkin set by comparing several mobility
// metrics between datasets: inter-arrival time distribution, movement
// distance distribution, event frequency, speed distribution and POI
// entropy. These helpers derive each metric from either trace type.
#pragma once

#include <span>
#include <vector>

#include "trace/dataset.h"

namespace geovalid::trace {

/// Inter-arrival gaps (minutes) between consecutive GPS visits, pooled
/// across users (gap = next.start - prev.end).
[[nodiscard]] std::vector<double> visit_interarrivals_min(const Dataset& ds);

/// Distances (km) between consecutive checkin locations per user, pooled.
[[nodiscard]] std::vector<double> checkin_movement_km(const Dataset& ds);

/// Distances (km) between consecutive visit centroids per user, pooled.
[[nodiscard]] std::vector<double> visit_movement_km(const Dataset& ds);

/// Implied speeds (m/s) between consecutive checkins, pooled across users.
/// Gaps of zero seconds are skipped.
[[nodiscard]] std::vector<double> checkin_speeds_mps(const Dataset& ds);

/// Per-user event frequency (events/day), one entry per user with >= 2
/// events.
[[nodiscard]] std::vector<double> checkin_frequency_per_day(const Dataset& ds);

/// Per-user POI entropy (bits) of the checkin venue distribution, one entry
/// per user with >= 1 checkin.
[[nodiscard]] std::vector<double> checkin_poi_entropy_bits(const Dataset& ds);

/// Per-user POI entropy (bits) of the visit venue distribution (visits must
/// be snapped to POIs; unsnapped visits each count as their own place).
[[nodiscard]] std::vector<double> visit_poi_entropy_bits(const Dataset& ds);

}  // namespace geovalid::trace
