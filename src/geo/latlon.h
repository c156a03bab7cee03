// Geographic coordinate types used throughout geovalid.
//
// All angles are stored in decimal degrees (WGS-84 datum). The library never
// mixes radians into public interfaces; conversions are internal to the
// geodesic routines.
#pragma once

#include <compare>
#include <string>

namespace geovalid::geo {

/// Number of metres in one kilometre. Kept here so distance-unit conversions
/// read as intent rather than magic numbers.
inline constexpr double kMetersPerKilometer = 1000.0;

/// Mean Earth radius (IUGG), metres. Used by the haversine formula.
inline constexpr double kEarthRadiusMeters = 6371008.8;

/// A WGS-84 geographic position in decimal degrees.
///
/// Latitude is positive north, longitude positive east. The type is a plain
/// value: cheap to copy, totally ordered (lexicographically by lat then lon)
/// so it can key ordered containers.
struct LatLon {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  friend constexpr auto operator<=>(const LatLon&, const LatLon&) = default;
};

/// Returns true when `p` is a physically meaningful coordinate:
/// |lat| <= 90 and |lon| <= 180, and neither component is NaN.
[[nodiscard]] bool is_valid(const LatLon& p);

/// Normalizes a longitude into (-180, 180]. Latitude is not wrapped (a
/// latitude outside [-90, 90] is a bug, not a wrap-around).
[[nodiscard]] double normalize_lon_deg(double lon_deg);

/// Renders "lat,lon" with 6 decimal places (~0.1 m resolution), for
/// messages. The CSV codecs do not use it: they stream coordinates at 10
/// significant digits.
[[nodiscard]] std::string to_string(const LatLon& p);

}  // namespace geovalid::geo
