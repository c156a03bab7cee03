#include "stream/faults.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "trace/fields.h"

namespace geovalid::stream {
namespace {

[[noreturn]] void bad_spec(std::string_view spec, const std::string& what) {
  throw std::invalid_argument("fault spec '" + std::string(spec) +
                              "': " + what);
}

/// splitmix64 finalizer — the same mix the engine uses for shard hashing.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Counter-based uniform double in [0, 1): hash of (seed, offset, lane).
double uniform01(std::uint64_t seed, std::uint64_t offset,
                 std::uint64_t lane) {
  const std::uint64_t h = mix64(mix64(seed ^ mix64(lane)) ^ offset);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t parse_u64(std::string_view spec, std::string_view s,
                        const char* what) {
  std::uint64_t v = 0;
  if (!trace::parse_int(s, v)) {
    bad_spec(spec, std::string(what) + " expects a non-negative integer, got '" +
                       std::string(s) + "'");
  }
  return v;
}

double parse_rate(std::string_view spec, std::string_view s) {
  double v = 0.0;
  if (!trace::parse_double(s, v) || !(v > 0.0) || v > 1.0) {
    bad_spec(spec, "corrupt expects a probability in (0, 1], got '" +
                       std::string(s) + "'");
  }
  return v;
}

/// Calls `on(key, value)` for each comma-separated key=value clause of
/// `spec`. An empty spec has no clauses; an empty clause, or one without
/// '=', is malformed.
template <typename On>
void for_each_clause(std::string_view spec, On&& on) {
  if (spec.empty()) return;
  for (std::string_view rest = spec;;) {
    const std::size_t comma = rest.find(',');
    const std::string_view clause = rest.substr(0, comma);
    if (clause.empty()) bad_spec(spec, "empty clause");
    const std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos) {
      bad_spec(spec, "clause '" + std::string(clause) +
                         "' is not of the form key=value");
    }
    on(clause.substr(0, eq), clause.substr(eq + 1));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
}

}  // namespace

FaultPlan parse_fault_spec(std::string_view spec) {
  FaultPlan plan;
  for_each_clause(spec, [&](std::string_view key, std::string_view value) {
    if (key == "corrupt") {
      plan.corrupt_rate = parse_rate(spec, value);
    } else if (key == "kill") {
      plan.kill_at = parse_u64(spec, value, "kill");
      if (plan.kill_at == 0) bad_spec(spec, "kill offset must be positive");
    } else if (key == "seed") {
      plan.seed = parse_u64(spec, value, "seed");
    } else if (key == "stall") {
      // stall=SHARD@OFFSET:MS
      const std::size_t at = value.find('@');
      const std::size_t colon = value.find(':', at);
      if (at == std::string_view::npos || colon == std::string_view::npos) {
        bad_spec(spec, "stall expects SHARD@OFFSET:MILLIS, got '" +
                           std::string(value) + "'");
      }
      FaultPlan::Stall stall;
      stall.shard = static_cast<std::size_t>(
          parse_u64(spec, value.substr(0, at), "stall shard"));
      stall.after_events =
          parse_u64(spec, value.substr(at + 1, colon - at - 1), "stall offset");
      stall.millis = static_cast<std::uint32_t>(
          parse_u64(spec, value.substr(colon + 1), "stall millis"));
      plan.stalls.push_back(stall);
    } else {
      bad_spec(spec, "unknown clause '" + std::string(key) + "'");
    }
  });
  return plan;
}

std::vector<std::uint64_t> FaultInjector::corrupt_stream(
    std::vector<Event>& events) const {
  std::vector<std::uint64_t> corrupted;
  if (!(plan_.corrupt_rate > 0.0)) return corrupted;

  // Clean per-user timestamps seen so far — corrupted events are excluded,
  // matching the engine, whose quarantine drops them before they advance
  // the per-user clock.
  std::unordered_map<trace::UserId, trace::TimeSec> last_clean_t;

  for (std::uint64_t i = 0; i < events.size(); ++i) {
    Event& e = events[i];
    if (uniform01(plan_.seed, i, 0) >= plan_.corrupt_rate) {
      last_clean_t[e.user] = e.time();
      continue;
    }

    geo::LatLon& pos =
        e.kind == Event::Kind::kGps ? e.gps.position : e.checkin.location;
    trace::TimeSec& t = e.kind == Event::Kind::kGps ? e.gps.t : e.checkin.t;

    std::uint64_t kind = mix64(mix64(plan_.seed ^ 0xFA17u) ^ i) % 8;
    const auto prev = last_clean_t.find(e.user);
    if (kind == 6 && prev == last_clean_t.end()) {
      // A stale timestamp needs per-user history; a first event falls back
      // to a corruption the quarantine catches unconditionally.
      kind = 0;
    }
    switch (kind) {
      case 0:
        pos.lat_deg = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        pos.lon_deg = std::numeric_limits<double>::infinity();
        break;
      case 2:
        pos.lat_deg = 91.5;
        break;
      case 3:
        pos.lon_deg = -212.75;
        break;
      case 4:
        t = -1 - static_cast<trace::TimeSec>(i % 1000);
        break;
      case 5:
        t = trace::kMaxEventTime + 1 + static_cast<trace::TimeSec>(i % 1000);
        break;
      case 6:
        // Regress far behind the user's clean clock: stale beyond any
        // plausible reorder window.
        t = prev->second - trace::days(400);
        if (t < 0) t = -1;  // still rejected (timestamp_overflow)
        break;
      case 7:
        e.user |= 0x80000000u;  // outside any enrolled id space
        break;
      default:
        break;
    }
    corrupted.push_back(i);
  }
  return corrupted;
}

void FaultInjector::on_shard_event(std::size_t shard,
                                   std::uint64_t shard_offset) const {
  for (const FaultPlan::Stall& s : plan_.stalls) {
    if (s.shard == shard && s.after_events == shard_offset && s.millis > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(s.millis));
    }
  }
}

NetFaultPlan parse_net_fault_spec(std::string_view spec) {
  NetFaultPlan plan;
  for_each_clause(spec, [&](std::string_view key, std::string_view value) {
    if (key == "seed") {
      plan.seed = parse_u64(spec, value, "seed");
      return;
    }
    NetFault fault;
    if (key == "netdrop") {
      fault.kind = NetFaultKind::kDrop;
    } else if (key == "netreset") {
      fault.kind = NetFaultKind::kReset;
    } else if (key == "netstall") {
      fault.kind = NetFaultKind::kStall;
    } else {
      bad_spec(spec, "unknown clause '" + std::string(key) + "'");
    }
    // TARGET@COUNT, with a :MILLIS tail for netstall only.
    const std::size_t at = value.find('@');
    if (at == std::string_view::npos || at == 0) {
      bad_spec(spec, std::string(key) + " expects TARGET@COUNT" +
                         (fault.kind == NetFaultKind::kStall ? ":MILLIS"
                                                             : "") +
                         ", got '" + std::string(value) + "'");
    }
    fault.target = std::string(value.substr(0, at));
    std::string_view tail = value.substr(at + 1);
    if (fault.kind == NetFaultKind::kStall) {
      const std::size_t colon = tail.find(':');
      if (colon == std::string_view::npos) {
        bad_spec(spec, "netstall expects TARGET@COUNT:MILLIS, got '" +
                           std::string(value) + "'");
      }
      fault.millis = static_cast<std::uint32_t>(
          parse_u64(spec, tail.substr(colon + 1), "netstall millis"));
      if (fault.millis == 0) {
        bad_spec(spec, "netstall millis must be positive");
      }
      tail = tail.substr(0, colon);
    }
    fault.after_records =
        parse_u64(spec, tail, (std::string(key) + " count").c_str());
    if (fault.after_records == 0) {
      bad_spec(spec, std::string(key) + " count must be positive");
    }
    plan.faults.push_back(std::move(fault));
  });
  return plan;
}

NetFaultInjector::Triggered NetFaultInjector::on_records(
    std::string_view target, std::uint64_t n) {
  Triggered out;
  if (plan_.faults.empty() || n == 0) return out;
  std::uint64_t& count = counts_[std::string(target)];
  const std::uint64_t before = count;
  count += n;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    if (fired_[i]) continue;
    const NetFault& f = plan_.faults[i];
    if (f.target != target) continue;
    if (before < f.after_records && count >= f.after_records) {
      fired_[i] = true;
      switch (f.kind) {
        case NetFaultKind::kDrop:
          out.drop = true;
          break;
        case NetFaultKind::kReset:
          out.reset = true;
          break;
        case NetFaultKind::kStall:
          out.stall_millis = std::max(out.stall_millis, f.millis);
          break;
      }
    }
  }
  return out;
}

std::uint32_t backoff_with_jitter(std::uint32_t base_ms, std::uint32_t cap_ms,
                                  std::uint32_t attempt, std::uint64_t seed,
                                  std::uint64_t lane) {
  if (base_ms == 0) base_ms = 1;
  if (cap_ms < base_ms) cap_ms = base_ms;
  // base * 2^attempt without overflow: once the shift alone clears the
  // cap, the product would too.
  std::uint64_t backoff = base_ms;
  if (attempt >= 32 || (backoff << attempt) >= cap_ms) {
    backoff = cap_ms;
  } else {
    backoff <<= attempt;
  }
  const double jitter = 0.5 + 0.5 * uniform01(seed, attempt, lane);
  const double ms = static_cast<double>(backoff) * jitter;
  return static_cast<std::uint32_t>(ms < 1.0 ? 1.0 : ms);
}

}  // namespace geovalid::stream
