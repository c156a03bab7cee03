// Unit + property tests for the Pareto distribution and its MLE fit,
// and the power-law relation fit.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/pareto.h"
#include "stats/powerlaw.h"
#include "stats/rng.h"
#include "stats/samplers.h"

namespace geovalid::stats {
namespace {

TEST(Pareto, PdfCdfConsistency) {
  const ParetoParams p{2.0, 1.5};
  EXPECT_DOUBLE_EQ(pareto_pdf(p, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(pareto_cdf(p, 1.9), 0.0);
  EXPECT_DOUBLE_EQ(pareto_cdf(p, 2.0), 0.0);
  EXPECT_NEAR(pareto_cdf(p, 1e9), 1.0, 1e-6);

  // d/dx CDF == PDF (numeric check at a few points).
  for (double x : {2.5, 4.0, 10.0}) {
    const double h = 1e-6;
    const double numeric =
        (pareto_cdf(p, x + h) - pareto_cdf(p, x - h)) / (2.0 * h);
    EXPECT_NEAR(numeric, pareto_pdf(p, x), 1e-5) << "x=" << x;
  }
}

TEST(Pareto, QuantileInvertsCdf) {
  const ParetoParams p{1.0, 2.0};
  for (double u : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(pareto_cdf(p, pareto_quantile(p, u)), u, 1e-12);
  }
  EXPECT_THROW(pareto_quantile(p, 1.0), std::invalid_argument);
  EXPECT_THROW(pareto_quantile(p, -0.1), std::invalid_argument);
}

TEST(ParetoFit, RejectsBadInput) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_THROW(fit_pareto(xs, 0.0), std::invalid_argument);
  EXPECT_THROW(fit_pareto(xs, 10.0), std::invalid_argument);  // empty tail
}

/// Property: MLE recovers alpha across a parameter sweep.
class ParetoRecovery
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ParetoRecovery, MleRecoversAlpha) {
  const auto [alpha, x_min] = GetParam();
  const ParetoParams truth{x_min, alpha};
  Rng rng(777);
  std::vector<double> xs;
  xs.reserve(20000);
  for (int i = 0; i < 20000; ++i) xs.push_back(sample_pareto(rng, truth));

  const ParetoFit fit = fit_pareto(xs, x_min);
  EXPECT_NEAR(fit.params.alpha, alpha, alpha * 0.05)
      << "alpha=" << alpha << " x_min=" << x_min;
  EXPECT_EQ(fit.tail_n, xs.size());
  EXPECT_LT(fit.ks_stat, 0.02);  // good fit on its own data
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParetoRecovery,
    ::testing::Values(std::make_tuple(0.7, 1.0), std::make_tuple(1.0, 2.0),
                      std::make_tuple(1.5, 0.5), std::make_tuple(2.5, 10.0),
                      std::make_tuple(4.0, 1.0)));

TEST(PowerLaw, ExactRelationRecovered) {
  std::vector<double> xs, ys;
  for (double x = 0.5; x < 200.0; x *= 1.7) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 0.6));
  }
  const PowerLawFit fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.k, 3.0, 1e-9);
  EXPECT_NEAR(fit.gamma, 0.6, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_EQ(fit.n, xs.size());
  EXPECT_NEAR(power_law_eval(fit, 10.0), 3.0 * std::pow(10.0, 0.6), 1e-8);
}

TEST(PowerLaw, SkipsNonPositivePairs) {
  const std::vector<double> xs{-1.0, 0.0, 1.0, 2.0, 4.0};
  const std::vector<double> ys{5.0, 5.0, 2.0, 4.0, 8.0};
  const PowerLawFit fit = fit_power_law(xs, ys);
  EXPECT_EQ(fit.n, 3u);
  EXPECT_NEAR(fit.gamma, 1.0, 1e-9);
}

TEST(PowerLaw, RejectsDegenerateInput) {
  const std::vector<double> xs{1.0};
  const std::vector<double> ys{1.0};
  EXPECT_THROW(fit_power_law(xs, ys), std::invalid_argument);
  const std::vector<double> xs2{1.0, 2.0};
  const std::vector<double> bad{1.0};
  EXPECT_THROW(fit_power_law(xs2, bad), std::invalid_argument);
  const std::vector<double> neg{-1.0, -2.0};
  EXPECT_THROW(fit_power_law(neg, neg), std::invalid_argument);
}

}  // namespace
}  // namespace geovalid::stats
