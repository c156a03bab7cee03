// Unit + property tests for the deterministic RNG and samplers.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/rng.h"
#include "stats/samplers.h"

namespace geovalid::stats {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
  EXPECT_DOUBLE_EQ(rng.uniform(5.0, 5.0), 5.0);
  EXPECT_THROW(rng.uniform(3.0, 2.0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.uniform_int(3, 1), std::invalid_argument);
}

TEST(Rng, BernoulliClampsAndBiases) {
  Rng rng(11);
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(12);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.08);
  EXPECT_NEAR(var, 4.0, 0.2);
  EXPECT_DOUBLE_EQ(rng.normal(3.0, 0.0), 3.0);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, PoissonMean) {
  Rng rng(14);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
}

TEST(Rng, ForkedStreamsAreDecorrelatedAndStable) {
  Rng root(99);
  Rng c1 = root.fork(1);
  // Forking again from an identical root with the same stream id yields the
  // same child stream (reproducibility requirement for per-user streams).
  Rng root2(99);
  Rng c1_again = root2.fork(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(c1.uniform(), c1_again.uniform());
  }
  // Different stream ids produce different streams.
  Rng root3(99);
  Rng c2 = root3.fork(2);
  Rng root4(99);
  Rng c1b = root4.fork(1);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (c2.uniform() == c1b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Samplers, TruncatedParetoStaysInRange) {
  Rng rng(21);
  const ParetoParams p{1.0, 1.2};
  for (int i = 0; i < 2000; ++i) {
    const double x = sample_truncated_pareto(rng, p, 50.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 50.0);
  }
  EXPECT_THROW(sample_truncated_pareto(rng, p, 0.5), std::invalid_argument);
}

TEST(Samplers, ZipfPmfSumsToOneAndDecreases) {
  const ZipfSampler zipf(20, 1.0);
  double sum = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) {
    sum += zipf.pmf(k);
    if (k > 0) {
      EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(zipf.pmf(100), 0.0);
}

TEST(Samplers, ZipfFrequenciesMatchPmf) {
  Rng rng(22);
  const ZipfSampler zipf(5, 1.2);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), zipf.pmf(k), 0.01)
        << "rank " << k;
  }
}

TEST(Samplers, ZipfRejectsBadParams) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(5, -0.5), std::invalid_argument);
}

TEST(Samplers, DiscreteSamplerRespectsWeights) {
  Rng rng(23);
  const DiscreteSampler ds({1.0, 0.0, 3.0});
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[ds.sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.01);
}

TEST(Samplers, DiscreteSamplerRejectsDegenerateWeights) {
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({1.0, -1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace geovalid::stats
