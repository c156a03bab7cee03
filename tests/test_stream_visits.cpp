// OnlineVisitDetector must emit exactly the visits VisitDetector::detect
// finds — the first half of the streaming engine's batch-equivalence
// guarantee. Property-tested over randomized traces that exercise fixes,
// indoor dropouts, WiFi bridging and logging outages.
#include <gtest/gtest.h>

#include <vector>

#include "geo/geodesic.h"
#include "stats/rng.h"
#include "stream/online_visit_detector.h"
#include "trace/visit_detector.h"

namespace geovalid::stream {
namespace {

const geo::LatLon kHome{34.4208, -119.6982};
const trace::VisitDetectorConfig kDetect{};

/// Runs the online detector over a full trace and collects its emissions.
std::vector<trace::Visit> stream_detect(
    const trace::GpsTrace& trace, OnlineVisitDetector& detector,
    const trace::VisitDetectorConfig& config) {
  std::vector<trace::Visit> visits;
  for (const trace::GpsPoint& p : trace.points()) {
    if (auto v = detector.push(p, config)) visits.push_back(*v);
  }
  if (auto v = detector.finish(config)) visits.push_back(*v);
  return visits;
}

void expect_same_visits(const std::vector<trace::Visit>& batch,
                        const std::vector<trace::Visit>& streamed) {
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].start, batch[i].start) << "visit " << i;
    EXPECT_EQ(streamed[i].end, batch[i].end) << "visit " << i;
    // The centroid arithmetic is transcribed, not approximated: identical
    // sums in identical order must give bit-identical coordinates.
    EXPECT_EQ(streamed[i].centroid.lat_deg, batch[i].centroid.lat_deg)
        << "visit " << i;
    EXPECT_EQ(streamed[i].centroid.lon_deg, batch[i].centroid.lon_deg)
        << "visit " << i;
  }
}

/// A trace alternating stays, travel and outages, with indoor dropouts.
trace::GpsTrace random_trace(std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<trace::GpsPoint> points;
  trace::TimeSec t = trace::hours(8);
  geo::LatLon here = kHome;

  const int segments = static_cast<int>(rng.uniform_int(4, 14));
  for (int s = 0; s < segments; ++s) {
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    if (kind == 0) {
      // A stay: minute samples with jitter, some indoors without a fix.
      const std::uint32_t wifi =
          static_cast<std::uint32_t>(rng.uniform_int(1, 5));
      const int mins = static_cast<int>(rng.uniform_int(2, 40));
      for (int m = 0; m < mins; ++m) {
        trace::GpsPoint p;
        p.t = t;
        p.has_fix = rng.bernoulli(0.6);
        p.position = geo::destination(here, rng.uniform(0.0, 360.0),
                                      rng.uniform(0.0, 40.0));
        p.wifi_fingerprint = rng.bernoulli(0.8) ? wifi : 0;
        p.accel_variance = rng.bernoulli(0.85) ? rng.uniform(0.0, 0.3)
                                               : rng.uniform(0.5, 3.0);
        points.push_back(p);
        t += trace::minutes(1);
      }
    } else if (kind == 1) {
      // Travel: fast-moving fixes.
      const int mins = static_cast<int>(rng.uniform_int(3, 15));
      for (int m = 0; m < mins; ++m) {
        here = geo::destination(here, rng.uniform(0.0, 360.0),
                                rng.uniform(300.0, 900.0));
        trace::GpsPoint p;
        p.t = t;
        p.has_fix = true;
        p.position = here;
        p.accel_variance = rng.uniform(0.5, 4.0);
        points.push_back(p);
        t += trace::minutes(1);
      }
    } else {
      // Logging outage, sometimes longer than max_sample_gap.
      t += trace::minutes(rng.uniform_int(2, 30));
    }
  }
  return trace::GpsTrace(std::move(points));
}

class VisitDetectorEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(VisitDetectorEquivalence, MatchesBatchDetector) {
  const trace::GpsTrace trace = random_trace(GetParam());
  const trace::VisitDetector batch;
  OnlineVisitDetector online;
  expect_same_visits(batch.detect(trace),
                     stream_detect(trace, online, kDetect));
}

TEST_P(VisitDetectorEquivalence, MatchesBatchDetectorWithCustomConfig) {
  trace::VisitDetectorConfig config;
  config.radius_m = 60.0;
  config.min_duration = trace::minutes(10);
  config.max_sample_gap = trace::minutes(5);
  const trace::GpsTrace trace = random_trace(GetParam() + 7000);
  const trace::VisitDetector batch(config);
  OnlineVisitDetector online;
  expect_same_visits(batch.detect(trace),
                     stream_detect(trace, online, config));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisitDetectorEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u));

TEST(OnlineVisitDetector, EmitsVisitWhenUserMovesAway) {
  OnlineVisitDetector detector;
  trace::TimeSec t = 0;
  for (int m = 0; m < 10; ++m) {
    trace::GpsPoint p;
    p.t = t;
    p.position = kHome;
    EXPECT_FALSE(detector.push(p, kDetect).has_value());
    t += trace::minutes(1);
  }
  EXPECT_EQ(detector.open_window_start(), std::optional<trace::TimeSec>(0));

  // A far fix closes the stay and opens a new window there.
  trace::GpsPoint far;
  far.t = t;
  far.position = geo::destination(kHome, 90.0, 2000.0);
  const auto visit = detector.push(far, kDetect);
  ASSERT_TRUE(visit.has_value());
  EXPECT_EQ(visit->start, 0);
  EXPECT_EQ(visit->end, trace::minutes(9));
  EXPECT_EQ(detector.open_window_start(), std::optional<trace::TimeSec>(t));
}

TEST(OnlineVisitDetector, ShortStayIsDiscarded) {
  OnlineVisitDetector detector;
  for (int m = 0; m < 3; ++m) {
    trace::GpsPoint p;
    p.t = trace::minutes(m);
    p.position = kHome;
    EXPECT_FALSE(detector.push(p, kDetect).has_value());
  }
  EXPECT_FALSE(detector.finish(kDetect).has_value());
  EXPECT_FALSE(detector.open_window_start().has_value());
}

TEST(OnlineVisitDetector, FinishEmitsOpenStayAndResets) {
  OnlineVisitDetector detector;
  for (int m = 0; m <= 8; ++m) {
    trace::GpsPoint p;
    p.t = trace::minutes(m);
    p.position = kHome;
    detector.push(p, kDetect);
  }
  const auto visit = detector.finish(kDetect);
  ASSERT_TRUE(visit.has_value());
  EXPECT_EQ(visit->duration(), trace::minutes(8));
  EXPECT_FALSE(detector.open_window_start().has_value());

  // Reusable after finish(): same input, same visit.
  for (int m = 0; m <= 8; ++m) {
    trace::GpsPoint p;
    p.t = trace::minutes(m);
    p.position = kHome;
    detector.push(p, kDetect);
  }
  const auto again = detector.finish(kDetect);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->duration(), trace::minutes(8));
}

}  // namespace
}  // namespace geovalid::stream
