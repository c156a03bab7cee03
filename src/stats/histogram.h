// A logarithmic histogram and PDF estimation on log-spaced bins (the
// representation behind the paper's Figure 7 PDFs).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace geovalid::stats {

/// One histogram bin: [lo, hi) with a count.
struct Bin {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t count = 0;
};

/// Log-spaced histogram over [lo, hi), lo > 0. Samples <= 0 count as
/// underflow.
class LogHistogram {
 public:
  LogHistogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] Bin bin(std::size_t i) const;
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }

 private:
  double log_lo_;
  double log_step_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

/// A point of an estimated probability density function.
struct PdfPoint {
  double x = 0.0;    ///< bin geometric center
  double density = 0.0;  ///< probability mass / bin width
};

/// Estimates a PDF on log-spaced bins: density_i = (n_i / N) / width_i,
/// evaluated at the geometric center of each non-empty bin. This is the
/// standard way the Levy Walk literature (and Figure 7) plots heavy-tailed
/// PDFs. Empty input or non-positive values yield an empty result.
[[nodiscard]] std::vector<PdfPoint> log_binned_pdf(std::span<const double> xs,
                                                   double lo, double hi,
                                                   std::size_t bins);

}  // namespace geovalid::stats
