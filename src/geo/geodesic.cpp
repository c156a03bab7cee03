#include "geo/geodesic.h"

#include <algorithm>
#include <cmath>

namespace geovalid::geo {
namespace {

constexpr double kPi = 3.14159265358979323846;

constexpr double deg_to_rad(double deg) { return deg * kPi / 180.0; }
constexpr double rad_to_deg(double rad) { return rad * 180.0 / kPi; }

}  // namespace

double distance_m(const LatLon& a, const LatLon& b) {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlat = deg_to_rad(b.lat_deg - a.lat_deg);
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);

  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h = sin_dlat * sin_dlat +
                   std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  // Clamp guards against h slightly exceeding 1 from floating-point error
  // on antipodal pairs.
  const double c = 2.0 * std::asin(std::sqrt(std::clamp(h, 0.0, 1.0)));
  return kEarthRadiusMeters * c;
}

double fast_distance_m(const LatLon& a, const LatLon& b) {
  const double mean_lat = deg_to_rad((a.lat_deg + b.lat_deg) / 2.0);
  const double dx = deg_to_rad(b.lon_deg - a.lon_deg) * std::cos(mean_lat);
  const double dy = deg_to_rad(b.lat_deg - a.lat_deg);
  return kEarthRadiusMeters * std::sqrt(dx * dx + dy * dy);
}

bool fast_distance_within(const LatLon& a, const LatLon& b, double r) {
  if (std::isfinite(deg_to_rad((a.lat_deg + b.lat_deg) / 2.0))) {
    const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
    const double dy = deg_to_rad(b.lat_deg - a.lat_deg);
    // cos = 1 bounds from above, cos = 0 from below (std::cos of a finite
    // double is never 0, so an infinite dlon keeps dx infinite).
    if (kEarthRadiusMeters * std::sqrt(dlon * dlon + dy * dy) <= r) {
      return true;
    }
    if (kEarthRadiusMeters * std::sqrt(dy * dy) > r) return false;
  }
  return fast_distance_m(a, b) <= r;
}

double bound_distance_m(const LatLon& a, const LatLon& b) {
  // Two independent lower bounds on the great-circle distance
  // d = 2R asin(sqrt(h)), h = sin^2(dlat/2) + cos(lat1) cos(lat2)
  // sin^2(dlon/2):
  //
  //   meridian: h >= sin^2(dlat/2), so d >= R * |dlat|  (exact when the
  //             points share a longitude);
  //   parallel: sqrt(h) >= min(cos lat1, cos lat2) * sin(dlon/2) and
  //             sin(x) >= (2/pi) x on [0, pi/2], so
  //             d >= (2/pi) R min(cos lat1, cos lat2) |dlon|.
  //
  // The max of the two is still a lower bound. The 1 - 1e-9 margin keeps
  // floating-point rounding from nudging the meridian bound past the
  // haversine on pure latitude-delta pairs, where the two are equal in
  // exact arithmetic.
  const double dlat = std::abs(deg_to_rad(b.lat_deg - a.lat_deg));
  double dlon_deg = std::abs(b.lon_deg - a.lon_deg);
  if (dlon_deg > 180.0) dlon_deg = 360.0 - dlon_deg;
  const double dlon = deg_to_rad(dlon_deg);
  const double cos_min =
      std::max(0.0, std::min(std::cos(deg_to_rad(a.lat_deg)),
                             std::cos(deg_to_rad(b.lat_deg))));
  const double meridian = kEarthRadiusMeters * dlat;
  const double parallel = kEarthRadiusMeters * (2.0 / kPi) * cos_min * dlon;
  return std::max(meridian, parallel) * (1.0 - 1e-9);
}

LatLon destination(const LatLon& origin, double bearing_deg,
                   double distance_meters) {
  const double delta = distance_meters / kEarthRadiusMeters;
  const double theta = deg_to_rad(bearing_deg);
  const double lat1 = deg_to_rad(origin.lat_deg);
  const double lon1 = deg_to_rad(origin.lon_deg);

  const double lat2 =
      std::asin(std::sin(lat1) * std::cos(delta) +
                std::cos(lat1) * std::sin(delta) * std::cos(theta));
  const double lon2 =
      lon1 + std::atan2(std::sin(theta) * std::sin(delta) * std::cos(lat1),
                        std::cos(delta) - std::sin(lat1) * std::sin(lat2));
  return LatLon{rad_to_deg(lat2), normalize_lon_deg(rad_to_deg(lon2))};
}

}  // namespace geovalid::geo
