#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace geovalid::stats {

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;

  RunningStats rs;
  for (double x : xs) rs.add(x);

  s.count = xs.size();
  s.min = rs.min();
  s.max = rs.max();
  s.mean = rs.mean();
  s.variance = rs.variance();
  s.stddev = rs.stddev();
  s.sum = rs.mean() * static_cast<double>(xs.size());
  s.median = quantile(xs, 0.5);
  return s;
}

double quantile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("quantile: p not in [0,1]");

  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());

  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace geovalid::stats
