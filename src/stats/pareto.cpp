#include "stats/pareto.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace geovalid::stats {

double pareto_pdf(const ParetoParams& p, double x) {
  if (x < p.x_min) return 0.0;
  return p.alpha * std::pow(p.x_min, p.alpha) / std::pow(x, p.alpha + 1.0);
}

double pareto_cdf(const ParetoParams& p, double x) {
  if (x < p.x_min) return 0.0;
  return 1.0 - std::pow(p.x_min / x, p.alpha);
}

double pareto_quantile(const ParetoParams& p, double u) {
  if (u < 0.0 || u >= 1.0) {
    throw std::invalid_argument("pareto_quantile: u not in [0,1)");
  }
  return p.x_min * std::pow(1.0 - u, -1.0 / p.alpha);
}

namespace {

/// KS distance between the ECDF of `tail` (sorted ascending) and the fitted
/// Pareto CDF.
double ks_distance(std::span<const double> sorted_tail,
                   const ParetoParams& params) {
  const auto n = static_cast<double>(sorted_tail.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < sorted_tail.size(); ++i) {
    const double model = pareto_cdf(params, sorted_tail[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    worst = std::max(worst, std::max(std::fabs(model - lo),
                                     std::fabs(model - hi)));
  }
  return worst;
}

}  // namespace

ParetoFit fit_pareto(std::span<const double> xs, double x_min) {
  if (!(x_min > 0.0)) {
    throw std::invalid_argument("fit_pareto: x_min must be positive");
  }
  std::vector<double> tail;
  tail.reserve(xs.size());
  for (double x : xs) {
    if (x >= x_min) tail.push_back(x);
  }
  if (tail.size() < 2) {
    throw std::invalid_argument("fit_pareto: fewer than 2 tail samples");
  }
  std::sort(tail.begin(), tail.end());

  double log_sum = 0.0;
  for (double x : tail) log_sum += std::log(x / x_min);
  if (log_sum <= 0.0) {
    // All tail samples equal x_min: degenerate, report a very steep tail.
    log_sum = std::numeric_limits<double>::min();
  }
  const auto n = static_cast<double>(tail.size());

  ParetoFit fit;
  fit.params.x_min = x_min;
  fit.params.alpha = n / log_sum;
  fit.tail_n = tail.size();
  fit.ks_stat = ks_distance(tail, fit.params);
  fit.log_likelihood = n * std::log(fit.params.alpha) +
                       n * fit.params.alpha * std::log(x_min) -
                       (fit.params.alpha + 1.0) * (log_sum + n * std::log(x_min));
  return fit;
}

}  // namespace geovalid::stats
