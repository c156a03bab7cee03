#include "stats/histogram.h"

#include <cmath>
#include <stdexcept>

namespace geovalid::stats {

LogHistogram::LogHistogram(double lo, double hi, std::size_t bins)
    : counts_(bins, 0) {
  if (!(lo > 0.0) || !(hi > lo) || bins == 0) {
    throw std::invalid_argument(
        "LogHistogram: need 0 < lo < hi and bins > 0");
  }
  log_lo_ = std::log(lo);
  log_step_ = (std::log(hi) - log_lo_) / static_cast<double>(bins);
}

void LogHistogram::add(double x) {
  ++total_;
  if (!(x > 0.0) || std::log(x) < log_lo_) {
    ++underflow_;
    return;
  }
  const double pos = (std::log(x) - log_lo_) / log_step_;
  if (pos >= static_cast<double>(counts_.size())) {
    ++overflow_;
    return;
  }
  ++counts_[static_cast<std::size_t>(pos)];
}

Bin LogHistogram::bin(std::size_t i) const {
  const double lo = std::exp(log_lo_ + log_step_ * static_cast<double>(i));
  const double hi = std::exp(log_lo_ + log_step_ * static_cast<double>(i + 1));
  return Bin{lo, hi, counts_.at(i)};
}

std::vector<PdfPoint> log_binned_pdf(std::span<const double> xs, double lo,
                                     double hi, std::size_t bins) {
  LogHistogram hist(lo, hi, bins);
  std::size_t in_range = 0;
  for (double x : xs) {
    hist.add(x);
  }
  in_range = hist.total() - hist.underflow() - hist.overflow();
  std::vector<PdfPoint> pdf;
  if (in_range == 0) return pdf;

  for (std::size_t i = 0; i < hist.bin_count(); ++i) {
    const Bin b = hist.bin(i);
    if (b.count == 0) continue;
    const double width = b.hi - b.lo;
    const double mass =
        static_cast<double>(b.count) / static_cast<double>(in_range);
    pdf.push_back(PdfPoint{std::sqrt(b.lo * b.hi), mass / width});
  }
  return pdf;
}

}  // namespace geovalid::stats
