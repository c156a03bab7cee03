// Unit tests for empirical CDFs and plotting grids.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/ecdf.h"

namespace geovalid::stats {
namespace {

TEST(Ecdf, EmptyBehaviour) {
  const Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.at(100.0), 0.0);
  EXPECT_THROW(e.inverse(0.5), std::logic_error);
}

TEST(Ecdf, StepFunctionValues) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const Ecdf e(xs);
  EXPECT_DOUBLE_EQ(e.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e.at(99.0), 1.0);
}

TEST(Ecdf, HandlesDuplicates) {
  const std::vector<double> xs{2.0, 2.0, 2.0, 5.0};
  const Ecdf e(xs);
  EXPECT_DOUBLE_EQ(e.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(e.at(1.99), 0.0);
}

TEST(Ecdf, RejectsNaN) {
  const std::vector<double> xs{1.0, std::nan("")};
  EXPECT_THROW(Ecdf{xs}, std::invalid_argument);
}

TEST(Ecdf, InverseIsGeneralizedQuantile) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  const Ecdf e(xs);
  EXPECT_DOUBLE_EQ(e.inverse(0.25), 10.0);
  EXPECT_DOUBLE_EQ(e.inverse(0.26), 20.0);
  EXPECT_DOUBLE_EQ(e.inverse(1.0), 40.0);
  EXPECT_THROW(e.inverse(0.0), std::invalid_argument);
  EXPECT_THROW(e.inverse(1.01), std::invalid_argument);
}

TEST(Ecdf, InverseRoundTripProperty) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const Ecdf e(xs);
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    // F(F^-1(p)) >= p by definition of the generalized inverse.
    EXPECT_GE(e.at(e.inverse(p)), p - 1e-12) << "p=" << p;
  }
}

TEST(CdfSeries, PercentScaleAndName) {
  const std::vector<double> xs{1.0, 2.0};
  const Ecdf e(xs);
  const std::vector<double> grid{1.0, 2.0};
  const CurveSeries s = sample_cdf_percent("demo", e, grid);
  EXPECT_EQ(s.name, "demo");
  ASSERT_EQ(s.y.size(), 2u);
  EXPECT_DOUBLE_EQ(s.y[0], 50.0);
  EXPECT_DOUBLE_EQ(s.y[1], 100.0);
}

TEST(Grids, LogGridEndpointsAndMonotonicity) {
  const auto g = log_grid(0.1, 1000.0, 9);
  ASSERT_EQ(g.size(), 9u);
  EXPECT_NEAR(g.front(), 0.1, 1e-12);
  EXPECT_NEAR(g.back(), 1000.0, 1e-9);
  for (std::size_t i = 1; i < g.size(); ++i) {
    EXPECT_GT(g[i], g[i - 1]);
    // Constant ratio between consecutive points.
    EXPECT_NEAR(g[i] / g[i - 1], g[1] / g[0], 1e-9);
  }
}

TEST(Grids, LinearGridEndpointsAndStep) {
  const auto g = linear_grid(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[2], 0.5);
  EXPECT_DOUBLE_EQ(g[4], 1.0);
}

TEST(Grids, RejectBadArguments) {
  EXPECT_THROW(log_grid(0.0, 10.0, 5), std::invalid_argument);
  EXPECT_THROW(log_grid(10.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(log_grid(1.0, 10.0, 1), std::invalid_argument);
  EXPECT_THROW(linear_grid(1.0, 0.0, 5), std::invalid_argument);
  EXPECT_THROW(linear_grid(0.0, 1.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace geovalid::stats
