// Unit tests for dataset stats (Table 1) and the §4.1 mobility metrics.
#include <gtest/gtest.h>

#include "geo/geodesic.h"
#include "trace/dataset.h"
#include "trace/trace_stats.h"

namespace geovalid::trace {
namespace {

const geo::LatLon kA{34.40, -119.70};

Dataset toy_dataset() {
  std::vector<Poi> pois;
  pois.push_back(Poi{1, "p1", PoiCategory::kFood, kA});
  pois.push_back(
      Poi{2, "p2", PoiCategory::kShop, geo::destination(kA, 90.0, 2000.0)});

  UserRecord u;
  u.id = 1;
  // GPS: two points spanning one day.
  GpsTrace gps;
  GpsPoint g1;
  g1.t = 0;
  g1.position = kA;
  GpsPoint g2;
  g2.t = kSecondsPerDay;
  g2.position = kA;
  gps.append(g1);
  gps.append(g2);
  u.gps = std::move(gps);

  // Visits: two, at the two POIs, 30 min apart.
  u.visits.push_back(Visit{minutes(0), minutes(20), kA, 1});
  u.visits.push_back(
      Visit{minutes(50), minutes(80), geo::destination(kA, 90.0, 2000.0), 2});

  // Checkins: three events 10 min apart alternating POIs.
  CheckinTrace ck;
  for (int i = 0; i < 3; ++i) {
    Checkin c;
    c.t = minutes(10 * i);
    c.poi = (i % 2 == 0) ? 1u : 2u;
    c.location = (i % 2 == 0) ? kA : geo::destination(kA, 90.0, 2000.0);
    ck.append(c);
  }
  u.checkins = std::move(ck);

  std::vector<UserRecord> users;
  users.push_back(std::move(u));
  return Dataset("toy", PoiIndex(std::move(pois)), std::move(users));
}

TEST(DatasetStats, Table1Row) {
  const Dataset ds = toy_dataset();
  const DatasetStats s = compute_stats(ds);
  EXPECT_EQ(s.users, 1u);
  EXPECT_DOUBLE_EQ(s.avg_days_per_user, 1.0);
  EXPECT_EQ(s.checkins, 3u);
  EXPECT_EQ(s.visits, 2u);
  EXPECT_EQ(s.gps_points, 2u);
}

TEST(DatasetStats, EmptyDataset) {
  const Dataset ds;
  const DatasetStats s = compute_stats(ds);
  EXPECT_EQ(s.users, 0u);
  EXPECT_DOUBLE_EQ(s.avg_days_per_user, 0.0);
}

TEST(Dataset, FindUser) {
  const Dataset ds = toy_dataset();
  EXPECT_NE(ds.find_user(1), nullptr);
  EXPECT_EQ(ds.find_user(2), nullptr);
}

TEST(TraceMetrics, VisitInterarrivals) {
  const auto gaps = visit_interarrivals_min(toy_dataset());
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_DOUBLE_EQ(gaps[0], 30.0);
}

TEST(TraceMetrics, CheckinMovementDistances) {
  const auto kms = checkin_movement_km(toy_dataset());
  ASSERT_EQ(kms.size(), 2u);
  EXPECT_NEAR(kms[0], 2.0, 0.01);
  EXPECT_NEAR(kms[1], 2.0, 0.01);
}

TEST(TraceMetrics, VisitMovementDistances) {
  const auto kms = visit_movement_km(toy_dataset());
  ASSERT_EQ(kms.size(), 1u);
  EXPECT_NEAR(kms[0], 2.0, 0.01);
}

TEST(TraceMetrics, CheckinSpeeds) {
  const auto speeds = checkin_speeds_mps(toy_dataset());
  ASSERT_EQ(speeds.size(), 2u);
  EXPECT_NEAR(speeds[0], 2000.0 / 600.0, 0.05);
}

TEST(TraceMetrics, CheckinFrequency) {
  const auto freqs = checkin_frequency_per_day(toy_dataset());
  ASSERT_EQ(freqs.size(), 1u);
  // 3 events over 20 minutes -> very high daily rate.
  EXPECT_GT(freqs[0], 100.0);
}

TEST(TraceMetrics, PoiEntropies) {
  const auto ck_entropy = checkin_poi_entropy_bits(toy_dataset());
  ASSERT_EQ(ck_entropy.size(), 1u);
  // Venue distribution {2x poi1, 1x poi2}.
  EXPECT_NEAR(ck_entropy[0], 0.9182958, 1e-6);

  const auto visit_entropy = visit_poi_entropy_bits(toy_dataset());
  ASSERT_EQ(visit_entropy.size(), 1u);
  EXPECT_NEAR(visit_entropy[0], 1.0, 1e-12);  // 50/50 over two places
}

}  // namespace
}  // namespace geovalid::trace
