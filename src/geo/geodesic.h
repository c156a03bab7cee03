// Great-circle distances and destinations on the WGS-84 sphere.
//
// The matching algorithm in the paper operates at city scale (alpha = 500 m)
// where the spherical haversine formula is accurate to well under a metre,
// so no ellipsoidal corrections are needed.
#pragma once

#include "geo/latlon.h"

namespace geovalid::geo {

/// Great-circle distance between two positions, in metres (haversine).
/// Numerically stable for both antipodal and very close points.
[[nodiscard]] double distance_m(const LatLon& a, const LatLon& b);

/// Fast approximate distance using an equirectangular projection, metres.
/// Within 0.1% of haversine for separations under ~50 km; used by hot loops
/// (visit detection over millions of GPS samples).
[[nodiscard]] double fast_distance_m(const LatLon& a, const LatLon& b);

/// Exactly `fast_distance_m(a, b) <= r` for every input, mostly without
/// the cosine. After the cosine, every step of that formula is a rounded
/// monotone function of |cos| ∈ [0, 1], so the formula with cos taken as 0
/// and as 1 brackets the result; the cosine is paid only for an `r`
/// between the two, or for a non-finite radian mean latitude, whose NaN
/// cosine no bracket sees. The visit detectors' stay test.
[[nodiscard]] bool fast_distance_within(const LatLon& a, const LatLon& b,
                                        double r);

/// Cheap *lower bound* on distance_m: guaranteed never to exceed the
/// haversine distance for any valid coordinate pair (tested against it),
/// so `bound_distance_m(a, b) > r` proves `distance_m(a, b) > r` without
/// paying for the trig-heavy exact formula. Used to gate the haversine in
/// the matcher's candidate generation and the POI grid's radius scan.
/// Within ~36% of the true distance for city-scale separations (the
/// longitude component carries a 2/pi slack factor), which is plenty to
/// reject the far candidates that dominate those scans.
[[nodiscard]] double bound_distance_m(const LatLon& a, const LatLon& b);

/// Destination point reached by travelling `distance_m` metres from `origin`
/// along `bearing_deg` (degrees clockwise from north) on a great circle.
[[nodiscard]] LatLon destination(const LatLon& origin, double bearing_deg,
                                 double distance_meters);

/// Unit helper used by the driveby-checkin classifier (threshold is 4 mph
/// in the paper).
[[nodiscard]] constexpr double mph_to_mps(double mph) { return mph * 0.44704; }

}  // namespace geovalid::geo
