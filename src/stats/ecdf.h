// Empirical cumulative distribution functions.
//
// Every CDF figure in the paper (Figures 2, 3, 5, 6, 8) is an ECDF of some
// derived quantity; this class is the shared representation the bench
// harnesses print.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace geovalid::stats {

/// An immutable empirical CDF built from a sample.
class Ecdf {
 public:
  Ecdf() = default;

  /// Builds the ECDF of `xs` (copied and sorted; NaNs rejected with
  /// std::invalid_argument).
  explicit Ecdf(std::span<const double> xs);

  [[nodiscard]] bool empty() const { return sorted_.empty(); }
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }

  /// F(x) = fraction of samples <= x. 0 for empty ECDFs.
  [[nodiscard]] double at(double x) const;

  /// Generalized inverse: smallest sample value v with F(v) >= p,
  /// p in (0, 1]. Throws on empty ECDF or p outside (0, 1].
  [[nodiscard]] double inverse(double p) const;

 private:
  std::vector<double> sorted_;
};

/// A named series sampled on a grid — the printable form of one curve in a
/// paper figure.
struct CurveSeries {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};

/// Samples `ecdf` on `grid` and labels the result, percent scale (0..100)
/// to match the paper's axes.
[[nodiscard]] CurveSeries sample_cdf_percent(const std::string& name,
                                             const Ecdf& ecdf,
                                             std::span<const double> grid);

/// Builds a logarithmically spaced grid [lo, hi] with `points` entries.
/// Requires 0 < lo < hi and points >= 2.
[[nodiscard]] std::vector<double> log_grid(double lo, double hi,
                                           std::size_t points);

/// Builds a linearly spaced grid [lo, hi] with `points` entries.
[[nodiscard]] std::vector<double> linear_grid(double lo, double hi,
                                              std::size_t points);

}  // namespace geovalid::stats
