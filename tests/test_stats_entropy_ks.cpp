// Unit tests for entropy and the two-sample KS statistic.
#include <gtest/gtest.h>

#include <vector>

#include "stats/entropy.h"
#include "stats/ks.h"
#include "stats/rng.h"

namespace geovalid::stats {
namespace {

TEST(Entropy, UniformDistributionIsLogN) {
  const std::vector<std::size_t> counts{10, 10, 10, 10};
  EXPECT_NEAR(entropy_bits(counts), 2.0, 1e-12);
}

TEST(Entropy, DegenerateDistributionIsZero) {
  const std::vector<std::size_t> counts{42, 0, 0};
  EXPECT_DOUBLE_EQ(entropy_bits(counts), 0.0);
  const std::vector<std::size_t> empty{0, 0};
  EXPECT_DOUBLE_EQ(entropy_bits(empty), 0.0);
}

TEST(Entropy, KnownBinarySplit) {
  const std::vector<std::size_t> counts{1, 3};
  // H = -(1/4)log2(1/4) - (3/4)log2(3/4) = 0.811278...
  EXPECT_NEAR(entropy_bits(counts), 0.8112781245, 1e-9);
}

TEST(Ks, IdenticalSamplesHaveZeroDistance) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ks_two_sample(xs, xs), 0.0);
}

TEST(Ks, DisjointSupportsHaveDistanceOne) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{10.0, 11.0, 12.0};
  EXPECT_DOUBLE_EQ(ks_two_sample(a, b), 1.0);
}

TEST(Ks, KnownShiftedValue) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{2.5, 3.5, 4.5, 5.5};
  // F_a jumps to 0.5 at 2; F_b still 0 there -> D >= 0.5.
  EXPECT_NEAR(ks_two_sample(a, b), 0.5, 1e-12);
}

TEST(Ks, RejectsEmptySamples) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(ks_two_sample({}, xs), std::invalid_argument);
  EXPECT_THROW(ks_two_sample(xs, {}), std::invalid_argument);
}

TEST(Ks, SameDistributionHasSmallStatAndLargePValue) {
  Rng rng(5);
  std::vector<double> a, b;
  for (int i = 0; i < 4000; ++i) {
    a.push_back(rng.normal(0.0, 1.0));
    b.push_back(rng.normal(0.0, 1.0));
  }
  const double d = ks_two_sample(a, b);
  EXPECT_LT(d, 0.05);
}

TEST(Ks, DifferentDistributionsHaveTinyPValue) {
  Rng rng(6);
  std::vector<double> a, b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.normal(0.0, 1.0));
    b.push_back(rng.normal(1.0, 1.0));  // shifted by one sigma
  }
  const double d = ks_two_sample(a, b);
  EXPECT_GT(d, 0.25);
}

}  // namespace
}  // namespace geovalid::stats
