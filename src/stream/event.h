// The unit of work of the streaming engine: one geosocial observation.
//
// A production deployment sees two interleaved feeds per user — the
// per-minute GPS log and the Foursquare checkin stream. The engine consumes
// them as a single merged sequence of Events; the only ordering requirement
// is that each *user's* events arrive with non-decreasing timestamps (the
// global stream may interleave users arbitrarily).
#pragma once

#include <cstdint>
#include <type_traits>

#include "trace/checkin.h"
#include "trace/gps.h"

namespace geovalid::stream {

/// One observation of one user. A plain tagged union (not a std::variant):
/// the engine copies events through per-shard mailboxes by the million, so
/// the layout stays trivially copyable and as compact as the larger payload
/// — the producer's copy bandwidth is the engine's throughput ceiling.
struct Event {
  enum class Kind : std::uint8_t {
    kGps,      ///< `gps` is valid
    kCheckin,  ///< `checkin` is valid
  };

  Kind kind = Kind::kGps;
  trace::UserId user = 0;
  union {
    trace::GpsPoint gps;
    trace::Checkin checkin;
  };

  Event() : gps{} {}

  [[nodiscard]] trace::TimeSec time() const {
    return kind == Kind::kGps ? gps.t : checkin.t;
  }

  [[nodiscard]] const geo::LatLon& position() const {
    return kind == Kind::kGps ? gps.position : checkin.location;
  }

  [[nodiscard]] static Event gps_sample(trace::UserId user,
                                        const trace::GpsPoint& p) {
    Event e;
    e.kind = Kind::kGps;
    e.user = user;
    e.gps = p;
    return e;
  }

  [[nodiscard]] static Event checkin_event(trace::UserId user,
                                           const trace::Checkin& c) {
    Event e;
    e.kind = Kind::kCheckin;
    e.user = user;
    e.checkin = c;
    return e;
  }
};

static_assert(std::is_trivially_copyable_v<Event>,
              "mailbox handoff relies on memcpy-able events");

}  // namespace geovalid::stream
