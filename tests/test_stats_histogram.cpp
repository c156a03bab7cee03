// Unit tests for the log histogram and log-binned PDF estimation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/histogram.h"

namespace geovalid::stats {
namespace {

TEST(LogHistogram, GeometricBins) {
  LogHistogram h(1.0, 1000.0, 3);  // decades
  h.add(2.0);
  h.add(20.0);
  h.add(200.0);
  EXPECT_EQ(h.bin(0).count, 1u);
  EXPECT_EQ(h.bin(1).count, 1u);
  EXPECT_EQ(h.bin(2).count, 1u);
  EXPECT_NEAR(h.bin(0).hi, 10.0, 1e-9);
  EXPECT_NEAR(h.bin(2).lo, 100.0, 1e-9);
}

TEST(LogHistogram, NonPositiveSamplesUnderflow) {
  LogHistogram h(1.0, 10.0, 2);
  h.add(0.0);
  h.add(-3.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(LogHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LogHistogram(0.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(LogHistogram(10.0, 5.0, 4), std::invalid_argument);
}

TEST(LogBinnedPdf, IntegratesToOne) {
  // Uniform-ish positive sample.
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(static_cast<double>(i) * 0.1);
  const auto pdf = log_binned_pdf(xs, 0.1, 100.0, 24);
  ASSERT_FALSE(pdf.empty());

  // Reconstruct total mass: sum(density * bin_width). Recover widths from
  // consecutive geometric centers is fiddly; instead integrate against the
  // known bin layout.
  LogHistogram layout(0.1, 100.0, 24);
  double mass = 0.0;
  std::size_t pi = 0;
  for (std::size_t b = 0; b < layout.bin_count() && pi < pdf.size(); ++b) {
    const Bin bin = layout.bin(b);
    const double center = std::sqrt(bin.lo * bin.hi);
    if (std::fabs(pdf[pi].x - center) < 1e-9) {
      mass += pdf[pi].density * (bin.hi - bin.lo);
      ++pi;
    }
  }
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(LogBinnedPdf, EmptyForNonPositiveData) {
  const std::vector<double> xs{-1.0, 0.0};
  EXPECT_TRUE(log_binned_pdf(xs, 0.1, 10.0, 4).empty());
}

}  // namespace
}  // namespace geovalid::stats
