// Unit tests for descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/summary.h"

namespace geovalid::stats {
namespace {

TEST(Summary, EmptySampleIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Summary, SingleValue) {
  const std::vector<double> xs{42.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
  EXPECT_DOUBLE_EQ(s.median, 42.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
}

TEST(Summary, KnownSample) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.sum, 40.0);
  EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.median, 4.5);
}

TEST(Quantile, InterpolatesType7) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0 / 3.0), 2.0);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Quantile, RejectsBadArguments) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.1), std::invalid_argument);
}

TEST(RunningStats, MatchesBatchSummary) {
  const std::vector<double> xs{3.1, -2.0, 7.7, 0.0, 12.4, -5.5, 3.1};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  const Summary s = summarize(xs);
  EXPECT_EQ(rs.count(), s.count);
  EXPECT_NEAR(rs.mean(), s.mean, 1e-12);
  EXPECT_NEAR(rs.variance(), s.variance, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), s.min);
  EXPECT_DOUBLE_EQ(rs.max(), s.max);
}

TEST(RunningStats, FewSamplesHaveZeroVariance) {
  RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
}

/// Property sweep: the running mean never leaves [min, max].
class RunningStatsProperty : public ::testing::TestWithParam<int> {};

TEST_P(RunningStatsProperty, MeanStaysWithinBounds) {
  const int seed = GetParam();
  RunningStats rs;
  double x = static_cast<double>(seed);
  for (int i = 0; i < 200; ++i) {
    // Cheap deterministic pseudo-random walk.
    x = std::fmod(x * 1103515245.0 + 12345.0, 1000.0) - 500.0;
    rs.add(x);
    EXPECT_GE(rs.mean(), rs.min() - 1e-9);
    EXPECT_LE(rs.mean(), rs.max() + 1e-9);
  }
  EXPECT_GE(rs.variance(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunningStatsProperty,
                         ::testing::Values(1, 7, 13, 99, 1234));

}  // namespace
}  // namespace geovalid::stats
