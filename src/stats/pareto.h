// Pareto (power-law tail) distribution: density, sampling support constants
// and maximum-likelihood fitting.
//
// The Levy Walk model of Section 6.1 fits movement distance and pause time
// to a Pareto distribution; this header is that fit.
#pragma once

#include <cstddef>
#include <span>

namespace geovalid::stats {

/// Pareto(x_min, alpha): pdf(x) = alpha * x_min^alpha / x^(alpha+1),
/// x >= x_min, alpha > 0.
struct ParetoParams {
  double x_min = 1.0;
  double alpha = 1.0;
};

/// Density at x (0 when x < x_min).
[[nodiscard]] double pareto_pdf(const ParetoParams& p, double x);

/// CDF at x (0 when x < x_min).
[[nodiscard]] double pareto_cdf(const ParetoParams& p, double x);

/// Quantile function; u in [0, 1). Throws std::invalid_argument otherwise.
[[nodiscard]] double pareto_quantile(const ParetoParams& p, double u);

/// Result of a maximum-likelihood Pareto fit.
struct ParetoFit {
  ParetoParams params;
  std::size_t tail_n = 0;   ///< samples >= x_min actually used by the fit
  double ks_stat = 1.0;     ///< KS distance between tail ECDF and the fit
  double log_likelihood = 0.0;
};

/// Fits alpha by MLE for a *given* x_min, using only samples >= x_min:
///   alpha = n / sum(ln(x_i / x_min)).
/// Throws std::invalid_argument when fewer than 2 samples lie in the tail
/// or x_min <= 0.
[[nodiscard]] ParetoFit fit_pareto(std::span<const double> xs, double x_min);

}  // namespace geovalid::stats
