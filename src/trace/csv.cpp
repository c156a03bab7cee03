#include "trace/csv.h"

#include <cmath>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "geo/latlon.h"
#include "obs/metrics.h"
#include "trace/fields.h"

namespace geovalid::trace {
namespace {

namespace fs = std::filesystem;

std::string sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == ',' || c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

[[noreturn]] void fail(const fs::path& file, std::size_t line,
                       const std::string& what) {
  // Counted before throwing so a long-running service that survives a bad
  // dataset still shows the rejection in its metrics.
  obs::registry()
      .counter("trace_ingest_errors_total",
               "CSV dataset rows rejected with an error, by file",
               {{"file", file.filename().string()}})
      .inc();
  std::ostringstream os;
  os << file.string() << ":" << line << ": " << what;
  throw IngestError(os.str());
}

/// Event timestamps must be plausible: non-negative and at most
/// kMaxEventTime, so the matcher's `t + beta` window arithmetic can never
/// overflow std::int64_t.
bool time_ok(TimeSec t) { return t >= 0 && t <= kMaxEventTime; }

/// Rates and variances must be finite and non-negative.
bool nonnegative(double v) { return std::isfinite(v) && v >= 0.0; }

// Values that parse but are garbage: NaN, infinities, |lat| > 90 or
// |lon| > 180 would otherwise propagate into every geodesic distance
// downstream.
constexpr const char* kBadCoordinates =
    "non-finite or out-of-range coordinates";
constexpr const char* kBadTime = "timestamp out of range [0, kMaxEventTime]";

/// The one row loop. Hands `row` the N fields of every data row of `file`;
/// `row` returns nullptr or what is wrong with the row. The header line is
/// skipped, and so are blank lines. A trailing '\r' is stripped, so CRLF
/// files parse like LF ones.
template <std::size_t N, typename Row>
void read_rows(const fs::path& file, Row&& row) {
  std::ifstream in(file);
  if (!in) throw IngestError("cannot open for read: " + file.string());
  std::string line;
  std::getline(in, line);  // header
  Fields f;
  for (std::size_t lineno = 2; std::getline(in, line); ++lineno) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (split_fields(line, ',', f) != N) {
      fail(file, lineno, "expected " + std::to_string(N) + " fields");
    }
    const std::span<const std::string_view, N> fields(f.data(), N);
    if (const char* bad = row(fields)) fail(file, lineno, bad);
  }
}

std::ofstream open_out(const fs::path& p) {
  std::ofstream out(p);
  if (!out) throw std::runtime_error("cannot open for write: " + p.string());
  return out;
}

}  // namespace

void write_dataset_csv(const Dataset& ds, const fs::path& dir) {
  fs::create_directories(dir);

  {
    auto out = open_out(dir / "pois.csv");
    out.precision(10);
    out << "id,name,category,lat,lon\n";
    for (const Poi& p : ds.pois().all()) {
      out << p.id << ',' << sanitize(p.name) << ',' << to_string(p.category)
          << ',' << p.location.lat_deg << ',' << p.location.lon_deg << '\n';
    }
  }
  {
    auto out = open_out(dir / "users.csv");
    out << "id,friends,badges,mayorships,checkins_per_day\n";
    for (const UserRecord& u : ds.users()) {
      out << u.id << ',' << u.profile.friends << ',' << u.profile.badges << ','
          << u.profile.mayorships << ',' << u.profile.checkins_per_day << '\n';
    }
  }
  {
    auto out = open_out(dir / "gps.csv");
    out << "user,t,lat,lon,has_fix,wifi,accel_var\n";
    out.precision(10);
    for (const UserRecord& u : ds.users()) {
      for (const GpsPoint& p : u.gps.points()) {
        out << u.id << ',' << p.t << ',' << p.position.lat_deg << ','
            << p.position.lon_deg << ',' << (p.has_fix ? 1 : 0) << ','
            << p.wifi_fingerprint << ',' << p.accel_variance << '\n';
      }
    }
  }
  {
    auto out = open_out(dir / "checkins.csv");
    out << "user,t,poi,category,lat,lon\n";
    out.precision(10);
    for (const UserRecord& u : ds.users()) {
      for (const Checkin& c : u.checkins.events()) {
        out << u.id << ',' << c.t << ',' << c.poi << ','
            << to_string(c.category) << ',' << c.location.lat_deg << ','
            << c.location.lon_deg << '\n';
      }
    }
  }
  {
    auto out = open_out(dir / "visits.csv");
    out << "user,start,end,lat,lon,poi\n";
    out.precision(10);
    for (const UserRecord& u : ds.users()) {
      for (const Visit& v : u.visits) {
        out << u.id << ',' << v.start << ',' << v.end << ','
            << v.centroid.lat_deg << ',' << v.centroid.lon_deg << ',' << v.poi
            << '\n';
      }
    }
  }
}

Dataset read_dataset_csv(const fs::path& dir, const std::string& name) {
  std::vector<Poi> pois;
  read_rows<5>(dir / "pois.csv", [&](auto f) -> const char* {
    Poi p;
    if (!parse_int(f[0], p.id)) return "bad id field";
    p.name = std::string(f[1]);
    const auto cat = parse_poi_category(f[2]);
    if (!cat) return "unknown POI category";
    p.category = *cat;
    if (!parse_double(f[3], p.location.lat_deg)) return "bad lat field";
    if (!parse_double(f[4], p.location.lon_deg)) return "bad lon field";
    if (!geo::is_valid(p.location)) return kBadCoordinates;
    pois.push_back(std::move(p));
    return nullptr;
  });

  // Users, keyed for trace attachment.
  std::map<UserId, UserRecord> users;
  read_rows<5>(dir / "users.csv", [&](auto f) -> const char* {
    UserRecord u;
    UserProfile& q = u.profile;
    if (!parse_int(f[0], u.id)) return "bad id field";
    if (!parse_int(f[1], q.friends)) return "bad friends field";
    if (!parse_int(f[2], q.badges)) return "bad badges field";
    if (!parse_int(f[3], q.mayorships)) return "bad mayorships field";
    if (!parse_double(f[4], q.checkins_per_day)) {
      return "bad checkins_per_day field";
    }
    if (!nonnegative(q.checkins_per_day)) {
      return "checkins_per_day must be finite and non-negative";
    }
    const UserId id = u.id;
    if (!users.emplace(id, std::move(u)).second) return "duplicate user id";
    return nullptr;
  });

  auto find_user = [&users](UserId id) -> UserRecord* {
    const auto it = users.find(id);
    return it == users.end() ? nullptr : &it->second;
  };
  constexpr const char* kUnknownUser = "row references unknown user";

  // GPS points (file is grouped by user, time-ascending per user).
  read_rows<kGpsFields>(dir / "gps.csv", [&](auto f) -> const char* {
    UserId id = 0;
    GpsPoint p;
    if (const char* bad = parse_gps_fields(f, id, p)) return bad;
    if (!time_ok(p.t)) return kBadTime;
    if (!geo::is_valid(p.position)) return kBadCoordinates;
    if (!nonnegative(p.accel_variance)) {
      return "accel_var must be finite and non-negative";
    }
    UserRecord* u = find_user(id);
    if (u == nullptr) return kUnknownUser;
    // Surface GpsTrace's ordering invariant with file:line context.
    if (!u->gps.points().empty() && p.t < u->gps.points().back().t) {
      return "GPS timestamps out of order for user";
    }
    u->gps.append(p);
    return nullptr;
  });

  read_rows<kCheckinFields>(dir / "checkins.csv", [&](auto f) -> const char* {
    UserId id = 0;
    Checkin c;
    if (const char* bad = parse_checkin_fields(f, id, c)) return bad;
    if (!time_ok(c.t)) return kBadTime;
    if (!geo::is_valid(c.location)) return kBadCoordinates;
    UserRecord* u = find_user(id);
    if (u == nullptr) return kUnknownUser;
    if (!u->checkins.events().empty() && c.t < u->checkins.events().back().t) {
      return "checkin timestamps out of order for user";
    }
    u->checkins.append(c);
    return nullptr;
  });

  read_rows<6>(dir / "visits.csv", [&](auto f) -> const char* {
    UserId id = 0;
    Visit v;
    if (!parse_int(f[0], id)) return "bad user field";
    if (!parse_int(f[1], v.start)) return "bad start field";
    if (!parse_int(f[2], v.end)) return "bad end field";
    if (!parse_double(f[3], v.centroid.lat_deg)) return "bad lat field";
    if (!parse_double(f[4], v.centroid.lon_deg)) return "bad lon field";
    if (!parse_int(f[5], v.poi)) return "bad poi field";
    if (!time_ok(v.start) || !time_ok(v.end)) return kBadTime;
    if (v.end < v.start) return "visit ends before it starts";
    if (!geo::is_valid(v.centroid)) return kBadCoordinates;
    UserRecord* u = find_user(id);
    if (u == nullptr) return kUnknownUser;
    u->visits.push_back(v);
    return nullptr;
  });

  std::vector<UserRecord> user_list;
  user_list.reserve(users.size());
  for (auto& [id, u] : users) user_list.push_back(std::move(u));

  return Dataset(name, PoiIndex(std::move(pois)), std::move(user_list));
}

}  // namespace geovalid::trace
