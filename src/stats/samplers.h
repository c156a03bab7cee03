// Distribution samplers built on Rng.
//
// These cover the generative needs of the synthetic study (Zipf-ranked POI
// popularity, heavy-tailed trip lengths, bursty inter-arrival gaps) and the
// Levy Walk trace generator (truncated Pareto flights and pauses).
#pragma once

#include <cstddef>
#include <vector>

#include "stats/pareto.h"
#include "stats/rng.h"

namespace geovalid::stats {

/// Draws from Pareto(x_min, alpha) by inverse-transform sampling.
[[nodiscard]] double sample_pareto(Rng& rng, const ParetoParams& params);

/// Draws from Pareto truncated to [x_min, x_max] (inverse transform on the
/// renormalized CDF). Requires x_max > x_min.
[[nodiscard]] double sample_truncated_pareto(Rng& rng,
                                             const ParetoParams& params,
                                             double x_max);

/// Zipf distribution over ranks {0, ..., n-1}: P(rank k) proportional to
/// 1/(k+1)^s. Precomputes the CDF once; draws are O(log n).
class ZipfSampler {
 public:
  /// Requires n >= 1 and s >= 0 (s = 0 degenerates to uniform).
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t sample(Rng& rng) const;

  /// Probability mass of a given rank.
  [[nodiscard]] double pmf(std::size_t rank) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  ///< cumulative masses, back() == 1
};

/// Weighted discrete sampler over arbitrary non-negative weights.
class DiscreteSampler {
 public:
  /// Requires at least one strictly positive weight.
  explicit DiscreteSampler(std::vector<double> weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  double total_ = 0.0;
};

}  // namespace geovalid::stats
