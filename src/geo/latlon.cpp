#include "geo/latlon.h"

#include <cmath>
#include <cstdio>

namespace geovalid::geo {

double normalize_lon_deg(double lon_deg) {
  double lon = std::fmod(lon_deg, 360.0);
  if (lon <= -180.0) lon += 360.0;
  if (lon > 180.0) lon -= 360.0;
  return lon;
}

std::string to_string(const LatLon& p) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f,%.6f", p.lat_deg, p.lon_deg);
  return buf;
}

}  // namespace geovalid::geo
