// The one field grammar of geovalid's delimited text: the CSV datasets
// (trace/csv.h), the serve wire records (serve/wire.h) and SNAP checkin
// dumps (trace/gowalla.h), plus the numbers in fault specs, HTTP heads,
// router rows and CLI flags.
//
// A number is a whole field read by std::from_chars, and nothing else:
//   integer  digits, with a leading '-' for signed types only, in range
//            for the target type;
//   double   [-]digits[.digits][(e|E)[+|-]digits], where either side of
//            the '.' may be empty but not both; in double range, subnormals
//            included; or an inf/infinity/nan spelling (any case, '-'
//            allowed).
// A leading '+', a blank on either side, hex, and numerals outside the
// target type's range are malformed. std::to_chars output always parses
// back to the same bits. Parsing checks syntax only: whether a value
// makes sense (|lat| <= 90, t >= 0) is the caller's question.
#pragma once

#include <array>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <span>
#include <string_view>

#include "trace/checkin.h"
#include "trace/gps.h"

namespace geovalid::trace {

/// The most fields a record has: a `gps` wire record, verb included.
inline constexpr std::size_t kMaxFields = 8;

using Fields = std::array<std::string_view, kMaxFields>;

/// Splits `line` at every `sep` into views of `line`. Returns the field
/// count, at least 1, or kMaxFields + 1 when there are more fields than
/// `out` holds.
std::size_t split_fields(std::string_view line, char sep, Fields& out);

/// Parses all of `s` as a T. On false, `out` is unchanged.
template <std::integral T>
[[nodiscard]] bool parse_int(std::string_view s, T& out) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  out = v;
  return true;
}

/// Parses all of `s` as a double. On false, `out` is unchanged.
[[nodiscard]] bool parse_double(std::string_view s, double& out);

/// A gps.csv row, which is a `gps` wire record after its verb:
///   user,t,lat,lon,has_fix,wifi,accel_var
inline constexpr std::size_t kGpsFields = 7;

/// A checkins.csv row, which is a `checkin` wire record after its verb:
///   user,t,poi,category,lat,lon
inline constexpr std::size_t kCheckinFields = 6;

/// Parses a gps row into `user` and `p`. Returns nullptr, or what is
/// wrong, e.g. "bad lat field".
[[nodiscard]] const char* parse_gps_fields(
    std::span<const std::string_view, kGpsFields> f, UserId& user,
    GpsPoint& p);

/// Parses a checkin row into `user` and `c`. Returns nullptr, or what is
/// wrong, e.g. "unknown category".
[[nodiscard]] const char* parse_checkin_fields(
    std::span<const std::string_view, kCheckinFields> f, UserId& user,
    Checkin& c);

}  // namespace geovalid::trace
