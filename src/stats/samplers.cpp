#include "stats/samplers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace geovalid::stats {

double sample_pareto(Rng& rng, const ParetoParams& params) {
  return pareto_quantile(params, rng.uniform());
}

double sample_truncated_pareto(Rng& rng, const ParetoParams& params,
                               double x_max) {
  if (!(x_max > params.x_min)) {
    throw std::invalid_argument("sample_truncated_pareto: x_max <= x_min");
  }
  const double cdf_max = pareto_cdf(params, x_max);
  const double u = rng.uniform() * cdf_max;
  return pareto_quantile(params, u);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n == 0");
  if (s < 0.0) throw std::invalid_argument("ZipfSampler: s < 0");
  cdf_.reserve(n);
  double cum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    cum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(cum);
  }
  for (double& c : cdf_) c /= cum;
  cdf_.back() = 1.0;  // exact despite rounding
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::pmf(std::size_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  const double prev = rank == 0 ? 0.0 : cdf_[rank - 1];
  return cdf_[rank] - prev;
}

DiscreteSampler::DiscreteSampler(std::vector<double> weights) {
  cdf_.reserve(weights.size());
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("DiscreteSampler: negative weight");
    total_ += w;
    cdf_.push_back(total_);
  }
  if (total_ <= 0.0) {
    throw std::invalid_argument("DiscreteSampler: all weights zero");
  }
}

std::size_t DiscreteSampler::sample(Rng& rng) const {
  const double u = rng.uniform() * total_;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

}  // namespace geovalid::stats
