// Basic descriptive statistics over samples of doubles.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace geovalid::stats {

/// Moments and order statistics of one sample.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased (n-1 denominator); 0 when count < 2
  double stddev = 0.0;
  double median = 0.0;
  double sum = 0.0;
};

/// Computes a Summary of `xs`. An empty span yields a zeroed Summary.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// p-th quantile (0 <= p <= 1) with linear interpolation between order
/// statistics (type-7, the numpy default). Throws std::invalid_argument on
/// an empty sample or p outside [0, 1].
[[nodiscard]] double quantile(std::span<const double> xs, double p);

/// Streaming mean/variance accumulator (Welford). Suitable for the
/// million-point GPS traces where materializing a copy is wasteful.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace geovalid::stats
