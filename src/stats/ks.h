// Two-sample Kolmogorov–Smirnov distance.
//
// §4.1 validates honest checkins by showing distribution agreement between
// datasets; the KS distance is the quantitative form of "the curves match".
#pragma once

#include <span>

namespace geovalid::stats {

/// Two-sample KS statistic: sup_x |F1(x) - F2(x)|, in [0, 1].
/// Throws std::invalid_argument when either sample is empty.
[[nodiscard]] double ks_two_sample(std::span<const double> a,
                                   std::span<const double> b);

}  // namespace geovalid::stats
