// Unit tests for the geo substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <utility>

#include "geo/geodesic.h"
#include "geo/latlon.h"

namespace geovalid::geo {
namespace {

constexpr double kSB_lat = 34.4208;
constexpr double kSB_lon = -119.6982;

TEST(LatLon, ValidityChecks) {
  EXPECT_TRUE(is_valid(LatLon{0.0, 0.0}));
  EXPECT_TRUE(is_valid(LatLon{90.0, 180.0}));
  EXPECT_TRUE(is_valid(LatLon{-90.0, -180.0}));
  EXPECT_FALSE(is_valid(LatLon{90.01, 0.0}));
  EXPECT_FALSE(is_valid(LatLon{0.0, 180.5}));
  EXPECT_FALSE(is_valid(LatLon{std::nan(""), 0.0}));
  EXPECT_FALSE(is_valid(LatLon{0.0, std::nan("")}));
}

TEST(LatLon, NormalizeLongitude) {
  EXPECT_DOUBLE_EQ(normalize_lon_deg(0.0), 0.0);
  EXPECT_DOUBLE_EQ(normalize_lon_deg(180.0), 180.0);
  EXPECT_DOUBLE_EQ(normalize_lon_deg(-180.0), 180.0);
  EXPECT_DOUBLE_EQ(normalize_lon_deg(190.0), -170.0);
  EXPECT_DOUBLE_EQ(normalize_lon_deg(370.0), 10.0);
  EXPECT_DOUBLE_EQ(normalize_lon_deg(-370.0), -10.0);
}

TEST(LatLon, ToStringFormat) {
  EXPECT_EQ(to_string(LatLon{1.5, -2.25}), "1.500000,-2.250000");
}

TEST(Geodesic, ZeroDistanceForIdenticalPoints) {
  const LatLon p{kSB_lat, kSB_lon};
  EXPECT_DOUBLE_EQ(distance_m(p, p), 0.0);
  EXPECT_DOUBLE_EQ(fast_distance_m(p, p), 0.0);
}

TEST(Geodesic, OneDegreeLatitudeIsAbout111Km) {
  const double d = distance_m(LatLon{0.0, 0.0}, LatLon{1.0, 0.0});
  EXPECT_NEAR(d, 111195.0, 150.0);
}

TEST(Geodesic, KnownCityPairDistance) {
  // Santa Barbara to Los Angeles (~140 km great circle).
  const LatLon sb{34.4208, -119.6982};
  const LatLon la{34.0522, -118.2437};
  const double d = distance_m(sb, la);
  EXPECT_NEAR(d, 140000.0, 5000.0);
}

TEST(Geodesic, SymmetricDistance) {
  const LatLon a{10.0, 20.0};
  const LatLon b{11.0, 21.5};
  EXPECT_DOUBLE_EQ(distance_m(a, b), distance_m(b, a));
}

TEST(Geodesic, FastDistanceTracksHaversineAtCityScale) {
  const LatLon origin{kSB_lat, kSB_lon};
  for (double bearing : {0.0, 45.0, 90.0, 135.0, 200.0, 300.0}) {
    for (double dist : {50.0, 500.0, 5000.0, 25000.0}) {
      const LatLon p = destination(origin, bearing, dist);
      const double h = distance_m(origin, p);
      const double f = fast_distance_m(origin, p);
      EXPECT_NEAR(f, h, h * 0.002 + 0.5)
          << "bearing=" << bearing << " dist=" << dist;
    }
  }
}

TEST(GeoBoundDistance, NeverExceedsHaversineOnRandomGlobalPairs) {
  // The whole point of bound_distance_m is the inequality
  // bound <= distance_m: the matcher prunes on it, so a single violation
  // would silently drop true matches. Hammer it globally, poles and
  // antimeridian included.
  std::mt19937_64 rng(20130814);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  for (int i = 0; i < 20000; ++i) {
    const LatLon a{lat(rng), lon(rng)};
    const LatLon b{lat(rng), lon(rng)};
    const double bound = bound_distance_m(a, b);
    const double truth = distance_m(a, b);
    ASSERT_LE(bound, truth) << to_string(a) << " -> " << to_string(b);
    ASSERT_GE(bound, 0.0);
  }
}

TEST(GeoBoundDistance, NeverExceedsHaversineAtCityScale) {
  // City-scale pairs are what the matcher actually prunes on; also check
  // the bound is usefully tight there (>= half the true distance).
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> bearing(0.0, 360.0);
  std::uniform_real_distribution<double> dist(0.1, 30000.0);
  const LatLon origin{kSB_lat, kSB_lon};
  for (int i = 0; i < 20000; ++i) {
    const LatLon a = destination(origin, bearing(rng), dist(rng));
    const LatLon b = destination(origin, bearing(rng), dist(rng));
    const double bound = bound_distance_m(a, b);
    const double truth = distance_m(a, b);
    ASSERT_LE(bound, truth) << to_string(a) << " -> " << to_string(b);
    ASSERT_GE(bound, truth * 0.5) << to_string(a) << " -> " << to_string(b);
  }
}

TEST(GeoBoundDistance, TightOnMeridians) {
  // Along a meridian the latitude term is the exact great-circle distance.
  const LatLon a{10.0, 25.0};
  const LatLon b{10.7, 25.0};
  EXPECT_NEAR(bound_distance_m(a, b), distance_m(a, b),
              distance_m(a, b) * 1e-6);
}

TEST(GeoBoundDistance, ZeroForIdenticalPoints) {
  const LatLon p{kSB_lat, kSB_lon};
  EXPECT_DOUBLE_EQ(bound_distance_m(p, p), 0.0);
}

TEST(GeoBoundDistance, HandlesAntimeridianWrap) {
  // 179.9°E to 179.9°W is 0.2° of longitude apart, not 359.8°.
  const LatLon a{0.0, 179.9};
  const LatLon b{0.0, -179.9};
  const double truth = distance_m(a, b);
  const double bound = bound_distance_m(a, b);
  EXPECT_LE(bound, truth);
  EXPECT_LT(truth, 30000.0);  // sanity: the short way round
  EXPECT_GT(bound, 0.0);
}

// fast_distance_within replaces `fast_distance_m(a, b) <= r` in both visit
// detectors, so it must decide exactly as that comparison for every input:
// one differing answer would change a stay, hence a verdict.
::testing::AssertionResult within_agrees(const LatLon& a, const LatLon& b,
                                         double r) {
  const bool want = fast_distance_m(a, b) <= r;
  if (fast_distance_within(a, b, r) == want) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "(" << a.lat_deg << ", " << a.lon_deg << ") -> (" << b.lat_deg
         << ", " << b.lon_deg << ") r=" << r << ": fast_distance_m says "
         << (want ? "within" : "beyond");
}

TEST(GeoFastDistanceWithin, AgreesOnAMillionRandomCityScalePairs) {
  std::mt19937_64 rng(20131121);
  std::uniform_real_distribution<double> lat(-85.0, 85.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> offset(-0.006, 0.006);  // ~670 m
  std::uniform_real_distribution<double> radius(1.0, 500.0);
  for (int i = 0; i < 1'000'000; ++i) {
    const LatLon a{lat(rng), lon(rng)};
    const LatLon b{a.lat_deg + offset(rng), a.lon_deg + offset(rng)};
    ASSERT_TRUE(within_agrees(a, b, radius(rng))) << "pair " << i;
  }
}

TEST(GeoFastDistanceWithin, AgreesOnAndOneUlpEitherSideOfTheDistance) {
  // r on the computed distance is where the brackets touch it: pure
  // latitude offsets (the cos = 0 bound is exact), offsets along the
  // equator (cos = 1 exact), longitude offsets too small to move the sum
  // once scaled by the cosine (cos = 0 exact, cos = 1 one ulp above) and
  // general offsets.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> lat(-85.0, 85.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> offset(-0.005, 0.005);
  std::uniform_real_distribution<double> skew_exp(-10.0, -6.0);
  for (int i = 0; i < 100'000; ++i) {
    const LatLon a{lat(rng), lon(rng)};
    const double dlat = offset(rng);
    const double dlon = offset(rng);
    const double skew = std::pow(10.0, skew_exp(rng));
    const std::pair<LatLon, LatLon> pairs[] = {
        {a, {a.lat_deg + dlat, a.lon_deg}},
        {{0.0, a.lon_deg}, {0.0, a.lon_deg + dlon}},
        {a, {a.lat_deg + dlat, a.lon_deg + dlat * skew}},
        {a, {a.lat_deg + dlat, a.lon_deg + dlon}},
    };
    for (const auto& [from, to] : pairs) {
      const double d = fast_distance_m(from, to);
      for (const double r : {std::nextafter(d, -1.0), d,
                             std::nextafter(d, 1e300)}) {
        ASSERT_TRUE(within_agrees(from, to, r)) << "pair " << i;
      }
    }
  }
}

TEST(GeoFastDistanceWithin, AgreesOnGlobalAndAntimeridianPairs) {
  std::mt19937_64 rng(20130814);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> radius(0.0, 2.5e7);
  for (int i = 0; i < 100'000; ++i) {
    const LatLon a{lat(rng), lon(rng)};
    const LatLon b{lat(rng), lon(rng)};
    const LatLon across{a.lat_deg, a.lon_deg > 0 ? -179.99 : 179.99};
    const double r = radius(rng);
    ASSERT_TRUE(within_agrees(a, b, r)) << "pair " << i;
    ASSERT_TRUE(within_agrees(a, across, r)) << "pair " << i;
    ASSERT_TRUE(within_agrees(a, b, fast_distance_m(a, b))) << "pair " << i;
  }
}

TEST(GeoFastDistanceWithin, AgreesOnNonFiniteAndHugeInputs) {
  // Every combination of these coordinates and radii. A latitude of ±inf
  // or 1.5e308 makes the radian mean latitude non-finite, hence the
  // formula NaN ("beyond" for every r), while a naive bracket reads
  // "within" at r = +inf.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {0.0,   34.4208, -119.6982, 90.0,  1e308,
                           -1e308, 1.5e308, kInf,      -kInf, kNaN};
  const double radii[] = {0.0, 100.0, kInf, -kInf, kNaN};
  std::size_t cases = 0;
  for (const double alat : values) {
    for (const double alon : values) {
      for (const double blat : values) {
        for (const double blon : values) {
          for (const double r : radii) {
            ASSERT_TRUE(within_agrees({alat, alon}, {blat, blon}, r));
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 50'000u);
  EXPECT_FALSE(fast_distance_within({kInf, 0.0}, {0.0, 0.0}, kInf));
  EXPECT_FALSE(fast_distance_within({1.5e308, 0.0}, {0.0, 0.0}, kInf));
}

TEST(Geodesic, DestinationRoundTrip) {
  const LatLon origin{kSB_lat, kSB_lon};
  for (double bearing : {0.0, 90.0, 180.0, 270.0, 33.0}) {
    const LatLon p = destination(origin, bearing, 1234.0);
    EXPECT_NEAR(distance_m(origin, p), 1234.0, 1.0);
  }
}

TEST(Geodesic, MphConversionRoundTrip) {
  EXPECT_NEAR(mph_to_mps(4.0), 1.78816, 1e-9);
}

}  // namespace
}  // namespace geovalid::geo
