#include "trace/fields.h"

namespace geovalid::trace {

std::size_t split_fields(std::string_view line, char sep, Fields& out) {
  std::size_t count = 0;
  while (true) {
    const std::size_t at = line.find(sep);
    if (count == out.size()) return out.size() + 1;
    out[count++] = line.substr(0, at);
    if (at == std::string_view::npos) return count;
    line.remove_prefix(at + 1);
  }
}

bool parse_double(std::string_view s, double& out) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  out = v;
  return true;
}

const char* parse_gps_fields(std::span<const std::string_view, kGpsFields> f,
                             UserId& user, GpsPoint& p) {
  int has_fix = 0;
  if (!parse_int(f[0], user)) return "bad user field";
  if (!parse_int(f[1], p.t)) return "bad t field";
  if (!parse_double(f[2], p.position.lat_deg)) return "bad lat field";
  if (!parse_double(f[3], p.position.lon_deg)) return "bad lon field";
  if (!parse_int(f[4], has_fix)) return "bad has_fix field";
  p.has_fix = has_fix != 0;
  if (!parse_int(f[5], p.wifi_fingerprint)) return "bad wifi field";
  if (!parse_double(f[6], p.accel_variance)) return "bad accel_var field";
  return nullptr;
}

const char* parse_checkin_fields(
    std::span<const std::string_view, kCheckinFields> f, UserId& user,
    Checkin& c) {
  if (!parse_int(f[0], user)) return "bad user field";
  if (!parse_int(f[1], c.t)) return "bad t field";
  if (!parse_int(f[2], c.poi)) return "bad poi field";
  const auto category = parse_poi_category(f[3]);
  if (!category) return "unknown category";
  c.category = *category;
  if (!parse_double(f[4], c.location.lat_deg)) return "bad lat field";
  if (!parse_double(f[5], c.location.lon_deg)) return "bad lon field";
  return nullptr;
}

}  // namespace geovalid::trace
