// CSV persistence for datasets.
//
// The on-disk layout is one directory per dataset:
//   pois.csv      id,name,category,lat,lon
//   users.csv     id,friends,badges,mayorships,checkins_per_day
//   gps.csv       user,t,lat,lon,has_fix,wifi,accel_var
//   checkins.csv  user,t,poi,category,lat,lon
//   visits.csv    user,start,end,lat,lon,poi
//
// Values never contain commas (POI names are sanitized on write), so no
// quoting layer is needed. Fields and numbers follow trace/fields.h, and
// gps.csv / checkins.csv rows go through its parse_gps_fields /
// parse_checkin_fields, the functions that parse serve's wire records.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "trace/dataset.h"

namespace geovalid::trace {

/// A dataset failed to load: missing file, malformed row, or a value that
/// parses but is physically meaningless (NaN/infinite/out-of-range
/// coordinates, timestamps outside [0, kMaxEventTime], negative or
/// non-finite profile rates). The message carries file and line number.
/// Distinct from std::runtime_error so callers (the CLI's exit-code
/// contract) can tell "your input is bad" from "the program failed".
struct IngestError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Writes `ds` under `dir` (created if absent). Throws std::runtime_error on
/// I/O failure.
void write_dataset_csv(const Dataset& ds, const std::filesystem::path& dir);

/// Loads a dataset previously written by write_dataset_csv. Throws
/// IngestError on missing files, malformed rows, or implausible values
/// (see IngestError).
[[nodiscard]] Dataset read_dataset_csv(const std::filesystem::path& dir,
                                       const std::string& name);

}  // namespace geovalid::trace
