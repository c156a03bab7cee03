// Tests for the learned extraneous-checkin detector (§7 extension).
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "detect/detector.h"
#include "detect/evaluation.h"
#include "detect/features.h"
#include "detect/logistic.h"

namespace geovalid::detect {
namespace {

const core::StudyAnalysis& tiny() {
  static const core::StudyAnalysis a =
      core::analyze_generated(synth::tiny_preset());
  return a;
}

TEST(Features, NamesMatchCount) {
  EXPECT_EQ(feature_names().size(), kFeatureCount);
}

TEST(Features, OnePerCheckin) {
  for (const trace::UserRecord& u : tiny().dataset.users()) {
    EXPECT_EQ(extract_features(u).size(), u.checkins.size());
  }
}

TEST(Features, ValuesAreFinite) {
  for (const trace::UserRecord& u : tiny().dataset.users()) {
    for (const FeatureVector& f : extract_features(u)) {
      for (double v : f) EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(Features, BurstMembersSeeSmallGaps) {
  // Three checkins, last two a minute apart: the bursty pair gets small
  // gap features and burst count >= 1.
  trace::CheckinTrace ck;
  for (trace::TimeSec t :
       {trace::minutes(0), trace::minutes(300), trace::minutes(301)}) {
    trace::Checkin c;
    c.t = t;
    ck.append(c);
  }
  trace::UserRecord u;
  u.checkins = std::move(ck);
  const auto f = extract_features(u);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_LT(f[2][0], f[1][0]);  // gap_prev of event 2 < gap_prev of event 1
  EXPECT_GE(f[1][2], 1.0);      // burst neighbours
  EXPECT_GE(f[2][2], 1.0);
}

TEST(Sigmoid, KnownValues) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(10.0), 1.0, 1e-4);
  EXPECT_NEAR(sigmoid(-10.0), 0.0, 1e-4);
  EXPECT_NEAR(sigmoid(2.0) + sigmoid(-2.0), 1.0, 1e-12);
}

TEST(Standardizer, ZScoresColumns) {
  const std::vector<std::vector<double>> rows{{1.0, 10.0},
                                              {3.0, 10.0},
                                              {5.0, 10.0}};
  const Standardizer s = Standardizer::fit(rows);
  const auto z = s.transform(std::vector<double>{3.0, 10.0});
  EXPECT_NEAR(z[0], 0.0, 1e-12);
  EXPECT_NEAR(z[1], 0.0, 1e-12);  // constant column -> 0
  const auto z2 = s.transform(std::vector<double>{5.0, 10.0});
  EXPECT_NEAR(z2[0], 1.0, 1e-12);  // one sample stddev above mean
}

TEST(Standardizer, RejectsBadShapes) {
  const std::vector<std::vector<double>> ragged{{1.0, 2.0}, {1.0}};
  EXPECT_THROW(Standardizer::fit(ragged), std::invalid_argument);
  const Standardizer s =
      Standardizer::fit(std::vector<std::vector<double>>{{1.0, 2.0}});
  EXPECT_THROW(s.transform(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Logistic, LearnsLinearlySeparableData) {
  // y = 1 iff x0 > 0, with x1 pure noise.
  stats::Rng rng(3);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 2000; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    rows.push_back({x0, rng.uniform(-1.0, 1.0)});
    labels.push_back(x0 > 0.0 ? 1 : 0);
  }
  const LogisticModel m = LogisticModel::train(rows, labels);
  int correct = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double p = m.predict(rows[i]);
    if ((p >= 0.5) == (labels[i] == 1)) ++correct;
  }
  EXPECT_GT(correct, 1900);
  // The informative weight dominates the noise weight.
  EXPECT_GT(std::fabs(m.weights()[0]), 5.0 * std::fabs(m.weights()[1]));
}

TEST(Logistic, RejectsBadInput) {
  const std::vector<std::vector<double>> rows{{1.0}};
  const std::vector<int> labels{1, 0};
  EXPECT_THROW(LogisticModel::train(rows, labels), std::invalid_argument);
  EXPECT_THROW(LogisticModel::train({}, {}), std::invalid_argument);
}

TEST(Auc, PerfectAndRandomScores) {
  ScoredLabels perfect;
  perfect.scores = {0.1, 0.2, 0.8, 0.9};
  perfect.labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(auc(perfect), 1.0);

  ScoredLabels inverted;
  inverted.scores = {0.9, 0.8, 0.2, 0.1};
  inverted.labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(auc(inverted), 0.0);

  ScoredLabels constant;
  constant.scores = {0.5, 0.5, 0.5, 0.5};
  constant.labels = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(auc(constant), 0.5);

  ScoredLabels one_class;
  one_class.scores = {0.1, 0.9};
  one_class.labels = {1, 1};
  EXPECT_DOUBLE_EQ(auc(one_class), 0.5);
}

TEST(Roc, CurveEndpointsAndMonotonicity) {
  ScoredLabels s;
  stats::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : 0;
    s.labels.push_back(label);
    s.scores.push_back(
        std::clamp(0.3 * label + rng.uniform(0.0, 0.7), 0.0, 1.0));
  }
  const auto curve = roc_curve(s, 11);
  ASSERT_EQ(curve.size(), 11u);
  // Threshold 0 flags everything.
  EXPECT_DOUBLE_EQ(curve.front().true_positive_rate, 1.0);
  EXPECT_DOUBLE_EQ(curve.front().false_positive_rate, 1.0);
  // Rates fall as the threshold rises.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].true_positive_rate,
              curve[i - 1].true_positive_rate + 1e-12);
    EXPECT_LE(curve[i].false_positive_rate,
              curve[i - 1].false_positive_rate + 1e-12);
  }
}

TEST(Detector, TrainsAndBeatsChanceOnHeldOutUsers) {
  const auto& a = tiny();
  const TrainedDetector det = train_detector(a.dataset, a.validation);
  EXPECT_FALSE(det.train_users.empty());
  EXPECT_FALSE(det.test_users.empty());

  const ScoredLabels scored = score_test_split(det, a.dataset, a.validation);
  ASSERT_GT(scored.scores.size(), 20u);
  // The learned detector must clearly beat a coin flip on unseen users.
  EXPECT_GT(auc(scored), 0.8);
}

TEST(Detector, ScoresAreProbabilities) {
  const auto& a = tiny();
  const TrainedDetector det = train_detector(a.dataset, a.validation);
  for (std::size_t u : det.test_users) {
    for (double p : det.score_user(a.dataset.users()[u])) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(Detector, RejectsBadConfig) {
  const auto& a = tiny();
  DetectorConfig cfg;
  cfg.train_fraction = 1.5;
  EXPECT_THROW(train_detector(a.dataset, a.validation, cfg),
               std::invalid_argument);
}

TEST(Detector, ConfusionAndBestThreshold) {
  const auto& a = tiny();
  const TrainedDetector det = train_detector(a.dataset, a.validation);
  const ScoredLabels scored = score_test_split(det, a.dataset, a.validation);
  const double threshold = best_f1_threshold(scored);
  const match::DetectionScore s = confusion_at(scored, threshold);
  EXPECT_GT(s.f1(), 0.6);
  EXPECT_EQ(s.true_positive + s.false_positive + s.false_negative +
                s.true_negative,
            scored.scores.size());
}

}  // namespace
}  // namespace geovalid::detect
