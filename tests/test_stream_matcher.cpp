// OnlineMatcher unit tests plus the single-user half of the streaming
// equivalence guarantee: detector + matcher driven event-by-event must
// reproduce match_user + classify_user over the assembled trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "geo/geodesic.h"
#include "match/classifier.h"
#include "match/matcher.h"
#include "match/pipeline.h"
#include "stats/rng.h"
#include "stream/online_matcher.h"
#include "stream/online_visit_detector.h"

namespace geovalid::stream {
namespace {

const geo::LatLon kVenue{34.4208, -119.6982};
const match::MatchConfig kMatch{};
const match::ClassifierConfig kClassify{};
const trace::VisitDetectorConfig kDetect{};

void expect_partition_eq(const match::Partition& got,
                         const match::Partition& want) {
  EXPECT_EQ(got.honest, want.honest);
  EXPECT_EQ(got.extraneous, want.extraneous);
  EXPECT_EQ(got.missing, want.missing);
  EXPECT_EQ(got.checkins, want.checkins);
  EXPECT_EQ(got.visits, want.visits);
  for (std::size_t c = 0; c < got.by_class.size(); ++c) {
    EXPECT_EQ(got.by_class[c], want.by_class[c]) << "class " << c;
  }
}

std::size_t class_count(const match::Partition& p, match::CheckinClass c) {
  return p.by_class[static_cast<std::size_t>(c)];
}

trace::Checkin checkin_at(trace::TimeSec t, const geo::LatLon& where) {
  trace::Checkin c;
  c.t = t;
  c.location = where;
  return c;
}

trace::Visit visit_at(trace::TimeSec start, trace::TimeSec end,
                      const geo::LatLon& where) {
  return trace::Visit{start, end, where};
}

TEST(OnlineMatcher, HonestVerdictWaitsForTheBetaWindow) {
  match::Partition sink;
  OnlineMatcher m;
  const OnlineMatcher::Context ctx{kMatch, kClassify, sink};
  const trace::TimeSec beta = match::MatchConfig{}.beta;

  m.push_checkin(checkin_at(trace::hours(1), kVenue), ctx);
  m.advance(trace::hours(1), trace::hours(1), ctx);
  EXPECT_EQ(sink.honest, 0u);
  EXPECT_EQ(m.pending_checkins(), 1u);

  m.push_visit(visit_at(trace::hours(1) - trace::minutes(10),
                        trace::hours(1) + trace::minutes(20), kVenue), ctx);
  m.advance(trace::hours(1) + trace::minutes(20),
            trace::hours(1) + trace::minutes(20), ctx);
  // The visit could still be claimed by a closer future checkin.
  EXPECT_EQ(sink.honest, 0u);

  // Once the watermark clears end + beta, the verdict lands.
  const trace::TimeSec quiet = trace::hours(1) + trace::minutes(20) + beta;
  m.advance(quiet, quiet, ctx);
  EXPECT_EQ(sink.honest, 1u);
  EXPECT_EQ(class_count(sink, match::CheckinClass::kHonest), 1u);
  EXPECT_EQ(sink.missing, 0u);
  EXPECT_EQ(m.pending_checkins(), 0u);
  EXPECT_EQ(m.pending_visits(), 0u);
}

TEST(OnlineMatcher, UnvisitedStayBecomesMissing) {
  match::Partition sink;
  OnlineMatcher m;
  const OnlineMatcher::Context ctx{kMatch, kClassify, sink};
  const trace::TimeSec beta = match::MatchConfig{}.beta;

  m.push_visit(visit_at(0, trace::minutes(10), kVenue), ctx);
  m.advance(trace::minutes(10), trace::minutes(10), ctx);
  EXPECT_EQ(sink.missing, 0u);

  m.advance(trace::minutes(10) + beta, trace::minutes(10) + beta, ctx);
  EXPECT_EQ(sink.missing, 1u);
  EXPECT_EQ(sink.visits, 1u);
}

TEST(OnlineMatcher, RemoteCheckinClassifiedWithoutWaitingForSpeed) {
  match::Partition sink;
  OnlineMatcher m;
  const OnlineMatcher::Context ctx{kMatch, kClassify, sink};
  const trace::TimeSec beta = match::MatchConfig{}.beta;

  // GPS puts the user 5 km from the venue at checkin time.
  trace::GpsPoint p;
  p.t = trace::minutes(5);
  p.position = geo::destination(kVenue, 45.0, 5000.0);
  m.observe_gps(p, ctx);

  m.push_checkin(checkin_at(trace::minutes(6), kVenue), ctx);
  m.advance(trace::minutes(6), trace::minutes(6), ctx);
  m.advance(trace::minutes(6) + beta, trace::minutes(6) + beta, ctx);

  EXPECT_EQ(sink.extraneous, 1u);
  EXPECT_EQ(class_count(sink, match::CheckinClass::kRemote), 1u);
  EXPECT_EQ(m.deferred_classifications(), 0u);
}

TEST(OnlineMatcher, NearbyCheckinDefersUntilSpeedBracketCloses) {
  match::Partition sink;
  OnlineMatcher m;
  const OnlineMatcher::Context ctx{kMatch, kClassify, sink};
  const trace::TimeSec beta = match::MatchConfig{}.beta;

  trace::GpsPoint before;
  before.t = trace::minutes(5);
  before.position = kVenue;
  m.observe_gps(before, ctx);

  m.push_checkin(checkin_at(trace::minutes(6), kVenue), ctx);
  m.advance(trace::minutes(6), trace::minutes(6), ctx);
  // The matching window expires with no GPS sample after the checkin: the
  // extraneous verdict is final but driveby-vs-superfluous is not.
  m.advance(trace::minutes(6) + beta, trace::minutes(6) + beta, ctx);
  EXPECT_EQ(sink.extraneous, 1u);
  EXPECT_EQ(m.deferred_classifications(), 1u);
  EXPECT_EQ(class_count(sink, match::CheckinClass::kSuperfluous), 0u);

  // The next sample closes the bracket: stationary -> superfluous.
  trace::GpsPoint after;
  after.t = trace::minutes(6) + beta + trace::minutes(1);
  after.position = kVenue;
  m.observe_gps(after, ctx);
  EXPECT_EQ(m.deferred_classifications(), 0u);
  EXPECT_EQ(class_count(sink, match::CheckinClass::kSuperfluous), 1u);
}

TEST(OnlineMatcher, FinishResolvesDeferredVerdicts) {
  match::Partition sink;
  OnlineMatcher m;
  const OnlineMatcher::Context ctx{kMatch, kClassify, sink};

  trace::GpsPoint before;
  before.t = trace::minutes(5);
  before.position = kVenue;
  m.observe_gps(before, ctx);
  m.push_checkin(checkin_at(trace::minutes(6), kVenue), ctx);
  m.advance(trace::minutes(6), trace::minutes(6), ctx);

  m.finish(ctx);
  EXPECT_EQ(sink.extraneous, 1u);
  // No sample after the checkin ever arrived: batch speed_at returns 0.
  EXPECT_EQ(class_count(sink, match::CheckinClass::kSuperfluous), 1u);
  EXPECT_EQ(m.deferred_classifications(), 0u);
}

TEST(OnlineMatcher, StateDecaysAcrossQuietPeriods) {
  match::Partition sink;
  OnlineMatcher m;
  const OnlineMatcher::Context ctx{kMatch, kClassify, sink};
  const trace::TimeSec beta = match::MatchConfig{}.beta;

  // A week of daily visit+checkin activity separated by quiet nights.
  std::size_t max_pending = 0;
  std::size_t max_gps = 0;
  for (int day = 0; day < 7; ++day) {
    const trace::TimeSec base = trace::days(day) + trace::hours(9);
    for (int k = 0; k < 5; ++k) {
      const trace::TimeSec start = base + trace::hours(k);
      trace::GpsPoint p;
      p.t = start;
      p.position = kVenue;
      m.observe_gps(p, ctx);
      m.push_checkin(checkin_at(start + trace::minutes(2), kVenue), ctx);
      m.advance(start + trace::minutes(2), start + trace::minutes(2), ctx);
      m.push_visit(visit_at(start, start + trace::minutes(30), kVenue), ctx);
      m.advance(start + trace::minutes(30), start + trace::minutes(30), ctx);
      max_pending = std::max(max_pending,
                             m.pending_checkins() + m.pending_visits());
      max_gps = std::max(max_gps, m.gps_buffer_size());
    }
    // Overnight quiet: a morning sample far past every horizon.
    const trace::TimeSec morning = trace::days(day + 1) + trace::hours(8);
    trace::GpsPoint p;
    p.t = morning;
    p.position = kVenue;
    m.observe_gps(p, ctx);
    m.advance(morning, morning, ctx);
    EXPECT_EQ(m.pending_checkins(), 0u) << "day " << day;
    EXPECT_EQ(m.pending_visits(), 0u) << "day " << day;
    EXPECT_LE(m.gps_buffer_size(), 2u) << "day " << day;
  }
  m.finish(ctx);

  // Memory peaked at one day's interacting burst, not the full week.
  EXPECT_LE(max_pending, 10u);
  EXPECT_LE(max_gps, 12u);
  EXPECT_EQ(sink.checkins, 35u);
  EXPECT_EQ(sink.visits, 35u);
  EXPECT_EQ(sink.honest + sink.extraneous, 35u);
  (void)beta;
}

// ---------------------------------------------------------------------------
// Randomized single-user equivalence: detector + matcher, event by event,
// against the batch pipeline over the same data.

struct SingleUser {
  trace::GpsTrace gps;
  std::vector<trace::Checkin> checkins;
};

SingleUser random_user(std::uint64_t seed) {
  stats::Rng rng(seed);
  SingleUser u;

  std::vector<trace::GpsPoint> points;
  trace::TimeSec t = trace::hours(8);
  geo::LatLon here = kVenue;
  const int segments = static_cast<int>(rng.uniform_int(6, 16));
  for (int s = 0; s < segments; ++s) {
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    if (kind == 0) {
      const std::uint32_t wifi =
          static_cast<std::uint32_t>(rng.uniform_int(1, 4));
      const int mins = static_cast<int>(rng.uniform_int(3, 35));
      for (int m = 0; m < mins; ++m) {
        trace::GpsPoint p;
        p.t = t;
        p.has_fix = rng.bernoulli(0.6);
        p.position = geo::destination(here, rng.uniform(0.0, 360.0),
                                      rng.uniform(0.0, 40.0));
        p.wifi_fingerprint = rng.bernoulli(0.8) ? wifi : 0;
        p.accel_variance = rng.bernoulli(0.9) ? rng.uniform(0.0, 0.3)
                                              : rng.uniform(0.5, 3.0);
        points.push_back(p);
        t += trace::minutes(1);
      }
    } else if (kind == 1) {
      const int mins = static_cast<int>(rng.uniform_int(3, 12));
      for (int m = 0; m < mins; ++m) {
        here = geo::destination(here, rng.uniform(0.0, 360.0),
                                rng.uniform(200.0, 800.0));
        trace::GpsPoint p;
        p.t = t;
        p.position = here;
        p.accel_variance = rng.uniform(0.5, 4.0);
        points.push_back(p);
        t += trace::minutes(1);
      }
    } else {
      t += trace::minutes(rng.uniform_int(5, 90));
    }

    // Sprinkle checkins: some near the current position, some remote.
    while (rng.bernoulli(0.5)) {
      const bool remote = rng.bernoulli(0.3);
      const geo::LatLon venue =
          remote ? geo::destination(here, rng.uniform(0.0, 360.0),
                                    rng.uniform(2000.0, 9000.0))
                 : geo::destination(here, rng.uniform(0.0, 360.0),
                                    rng.uniform(0.0, 300.0));
      u.checkins.push_back(checkin_at(
          t - trace::minutes(rng.uniform_int(0, 20)), venue));
    }
  }
  std::sort(u.checkins.begin(), u.checkins.end(),
            [](const trace::Checkin& a, const trace::Checkin& b) {
              return a.t < b.t;
            });
  // Timestamps sampled in the past may precede the first GPS sample; the
  // batch classifier handles that, and so must the stream.
  u.gps = trace::GpsTrace(std::move(points));
  return u;
}

match::Partition batch_partition(const SingleUser& u) {
  const trace::VisitDetector detector;
  const std::vector<trace::Visit> visits = detector.detect(u.gps);
  const match::UserMatch m = match::match_user(u.checkins, visits, {});
  const auto labels = match::classify_user(u.checkins, u.gps, m, {});

  match::Partition p;
  p.checkins = u.checkins.size();
  p.visits = visits.size();
  p.honest = m.honest_count();
  p.extraneous = m.extraneous_count();
  p.missing = m.missing_count();
  for (const match::CheckinClass l : labels) {
    ++p.by_class[static_cast<std::size_t>(l)];
  }
  return p;
}

match::Partition streamed_partition(const SingleUser& u) {
  match::Partition sink;
  OnlineVisitDetector detector;
  OnlineMatcher matcher;
  const OnlineMatcher::Context ctx{kMatch, kClassify, sink};

  // Merge the two feeds in time order, GPS first on ties (the replay
  // driver's order).
  std::size_t gi = 0, ci = 0;
  const auto points = u.gps.points();
  while (gi < points.size() || ci < u.checkins.size()) {
    const bool take_gps =
        ci >= u.checkins.size() ||
        (gi < points.size() && points[gi].t <= u.checkins[ci].t);
    trace::TimeSec t;
    if (take_gps) {
      const trace::GpsPoint& p = points[gi++];
      t = p.t;
      matcher.observe_gps(p, ctx);
      if (auto v = detector.push(p, kDetect)) matcher.push_visit(*v, ctx);
    } else {
      const trace::Checkin& c = u.checkins[ci++];
      t = c.t;
      matcher.push_checkin(c, ctx);
    }
    matcher.advance(t, detector.open_window_start().value_or(t), ctx);
  }
  if (auto v = detector.finish(kDetect)) matcher.push_visit(*v, ctx);
  matcher.finish(ctx);
  return sink;
}

class MatcherEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherEquivalence, StreamedPartitionEqualsBatch) {
  const SingleUser u = random_user(GetParam());
  expect_partition_eq(streamed_partition(u), batch_partition(u));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherEquivalence,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u, 106u,
                                           107u, 108u, 109u, 110u, 111u, 112u,
                                           113u, 114u, 115u, 116u));

}  // namespace
}  // namespace geovalid::stream
