#include "trace/gowalla.h"

#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "trace/csv.h"  // IngestError
#include "trace/fields.h"

namespace geovalid::trace {
namespace {

/// Rows silently dropped under skip_invalid_rows. The SNAP dumps contain a
/// few bad rows by design; the counter makes the drop rate inspectable.
void count_skipped(const char* reason) {
  obs::registry()
      .counter("trace_ingest_skipped_rows_total",
               "SNAP import rows skipped as invalid, by reason",
               {{"reason", reason}})
      .inc();
}

[[noreturn]] void fail(const std::filesystem::path& file, std::size_t line,
                       const std::string& what) {
  std::ostringstream os;
  os << file.string() << ":" << line << ": " << what;
  throw IngestError(os.str());
}

/// Parses "YYYY-MM-DDTHH:MM:SSZ" into Unix seconds; nullopt on mismatch.
std::optional<TimeSec> parse_iso8601(std::string_view s) {
  std::tm tm{};
  if (s.size() < 20 || s[4] != '-' || s[7] != '-' || s[10] != 'T' ||
      s[13] != ':' || s[16] != ':' || s.back() != 'Z') {
    return std::nullopt;
  }
  auto num = [&](std::size_t pos, std::size_t len, int& out) {
    return parse_int(s.substr(pos, len), out);
  };
  int year, month, day, hour, minute, second;
  if (!num(0, 4, year) || !num(5, 2, month) || !num(8, 2, day) ||
      !num(11, 2, hour) || !num(14, 2, minute) || !num(17, 2, second)) {
    return std::nullopt;
  }
  tm.tm_year = year - 1900;
  tm.tm_mon = month - 1;
  tm.tm_mday = day;
  tm.tm_hour = hour;
  tm.tm_min = minute;
  tm.tm_sec = second;
  const std::time_t t = timegm(&tm);
  if (t == static_cast<std::time_t>(-1)) return std::nullopt;
  return static_cast<TimeSec>(t);
}

}  // namespace

Dataset read_gowalla_checkins(const std::filesystem::path& file,
                              const std::string& dataset_name,
                              const GowallaImportOptions& options) {
  std::ifstream in(file);
  if (!in) {
    throw IngestError("cannot open for read: " + file.string());
  }

  std::map<UserId, std::vector<Checkin>> per_user;
  std::map<PoiId, Poi> venues;

  // Cached: one registry lookup for the whole import, not one per row.
  obs::Counter& rows_ingested = obs::registry().counter(
      "trace_ingest_rows_total", "Rows accepted by trace importers",
      {{"format", "snap"}});

  std::string line;
  Fields f;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    auto reject = [&](const char* reason, const char* what) -> bool {
      if (options.skip_invalid_rows) {
        count_skipped(reason);
        return true;  // caller: skip this row
      }
      fail(file, lineno, what);
    };

    if (split_fields(line, '\t', f) != 5) {
      if (reject("field_count", "expected 5 tab-separated fields")) continue;
    }
    UserId user = 0;
    const auto t = parse_iso8601(f[1]);
    geo::LatLon where;
    PoiId venue = 0;
    if (!parse_int(f[0], user) || !t || !parse_double(f[2], where.lat_deg) ||
        !parse_double(f[3], where.lon_deg) || !parse_int(f[4], venue)) {
      if (reject("malformed_field", "malformed field")) continue;
    }
    if (!geo::is_valid(where)) {
      if (reject("bad_coordinates", "coordinate out of range")) continue;
    }
    if (options.max_users > 0 && per_user.size() >= options.max_users &&
        per_user.find(user) == per_user.end()) {
      continue;
    }

    // SNAP venue ids start at 0; shift by one to keep kNoPoi free.
    const PoiId poi = venue + 1;
    if (poi == kNoPoi) {
      if (reject("venue_id_sentinel", "venue id collides with the sentinel")) {
        continue;
      }
    }
    const auto [it, inserted] = venues.try_emplace(poi);
    if (inserted) {
      it->second.id = poi;
      it->second.name = "venue-" + std::string(f[4]);
      it->second.category = PoiCategory::kProfessional;  // unknown in SNAP
      it->second.location = where;
    }

    Checkin c;
    c.t = *t;
    c.poi = poi;
    c.category = it->second.category;
    c.location = it->second.location;  // first-seen venue position
    per_user[user].push_back(c);
    rows_ingested.inc();
  }

  std::vector<Poi> pois;
  pois.reserve(venues.size());
  for (auto& [id, poi] : venues) pois.push_back(std::move(poi));

  std::vector<UserRecord> users;
  users.reserve(per_user.size());
  for (auto& [id, events] : per_user) {
    UserRecord rec;
    rec.id = id;
    rec.checkins = CheckinTrace(std::move(events));
    rec.profile.checkins_per_day = rec.checkins.events_per_day();
    users.push_back(std::move(rec));
  }
  return Dataset(dataset_name, PoiIndex(std::move(pois)), std::move(users));
}

}  // namespace geovalid::trace
