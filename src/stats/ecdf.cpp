#include "stats/ecdf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace geovalid::stats {

Ecdf::Ecdf(std::span<const double> xs) : sorted_(xs.begin(), xs.end()) {
  for (double x : sorted_) {
    if (std::isnan(x)) throw std::invalid_argument("Ecdf: NaN sample");
  }
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::at(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::inverse(double p) const {
  if (sorted_.empty()) throw std::logic_error("Ecdf::inverse: empty ECDF");
  if (p <= 0.0 || p > 1.0) {
    throw std::invalid_argument("Ecdf::inverse: p not in (0,1]");
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted_.size())));
  return sorted_[std::min(rank, sorted_.size()) - 1];
}

CurveSeries sample_cdf_percent(const std::string& name, const Ecdf& ecdf,
                               std::span<const double> grid) {
  CurveSeries s;
  s.name = name;
  s.x.assign(grid.begin(), grid.end());
  s.y.reserve(grid.size());
  for (double x : grid) s.y.push_back(100.0 * ecdf.at(x));
  return s;
}

std::vector<double> log_grid(double lo, double hi, std::size_t points) {
  if (!(lo > 0.0) || !(hi > lo) || points < 2) {
    throw std::invalid_argument("log_grid: need 0 < lo < hi, points >= 2");
  }
  std::vector<double> grid;
  grid.reserve(points);
  const double step = std::log(hi / lo) / static_cast<double>(points - 1);
  for (std::size_t i = 0; i < points; ++i) {
    grid.push_back(lo * std::exp(step * static_cast<double>(i)));
  }
  return grid;
}

std::vector<double> linear_grid(double lo, double hi, std::size_t points) {
  if (!(hi >= lo) || points < 2) {
    throw std::invalid_argument("linear_grid: need hi >= lo, points >= 2");
  }
  std::vector<double> grid;
  grid.reserve(points);
  const double step = (hi - lo) / static_cast<double>(points - 1);
  for (std::size_t i = 0; i < points; ++i) {
    grid.push_back(lo + step * static_cast<double>(i));
  }
  return grid;
}

}  // namespace geovalid::stats
