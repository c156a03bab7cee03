// Checkin feature extraction for learned extraneous-checkin detection.
//
// §7 of the paper: "a more thorough analysis (perhaps applying machine
// learning techniques) is necessary". The hard constraint is unchanged — a
// consumer of a geosocial dataset has the checkin trace only, no GPS — so
// every feature here derives from the checkin stream itself.
#pragma once

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "trace/dataset.h"

namespace geovalid::detect {

/// Number of features per checkin.
inline constexpr std::size_t kFeatureCount = 12;

/// One checkin's feature vector.
using FeatureVector = std::array<double, kFeatureCount>;

/// Human-readable feature names, index-aligned with FeatureVector.
[[nodiscard]] std::span<const std::string_view> feature_names();

/// Features of every checkin of one user (parallel to the checkin trace):
///
///   0 log1p gap to previous checkin (minutes; burstiness, Figure 6)
///   1 log1p gap to next checkin (minutes)
///   2 neighbours within a 10-minute window (burst size)
///   3 hour-of-day, sine component (badge sprees cluster in time)
///   4 hour-of-day, cosine component
///   5 weekend flag
///   6 log1p distance from the user's checkin centroid (km; remote fakes)
///   7 log1p distance from the previous checkin (km)
///   8 log1p implied speed from the previous checkin (m/s; teleports)
///   9 user's repeat count at this venue (mayor farming)
///  10 user's share of checkins in this venue's category
///  11 log1p user's checkins per day (heavy users fake more)
[[nodiscard]] std::vector<FeatureVector> extract_features(
    const trace::UserRecord& user);

}  // namespace geovalid::detect
