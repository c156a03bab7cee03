// Foursquare check-in events: the geosocial side of the study.
#pragma once

#include <span>
#include <vector>

#include "geo/latlon.h"
#include "trace/poi.h"
#include "trace/time.h"

namespace geovalid::trace {

/// One check-in event as returned by the Foursquare API: timestamp, venue
/// identity/category and the *venue's* coordinates (not the phone's).
struct Checkin {
  TimeSec t = 0;
  PoiId poi = kNoPoi;
  PoiCategory category = PoiCategory::kProfessional;
  geo::LatLon location;  ///< the POI's registered coordinates
};

/// A user's check-in history, ordered by time.
class CheckinTrace {
 public:
  CheckinTrace() = default;
  explicit CheckinTrace(std::vector<Checkin> events);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::span<const Checkin> events() const { return events_; }
  [[nodiscard]] const Checkin& at(std::size_t i) const { return events_.at(i); }

  void append(Checkin c);  ///< must not go backwards in time (throws)

  /// Events per day over the trace's span; 0 for traces under one event or
  /// spanning zero time. This is the "#Checkins/Day" feature of Table 2.
  [[nodiscard]] double events_per_day() const;

  /// Successive inter-arrival gaps in fractional minutes (size() - 1 values)
  /// — the x-axis of Figures 2 and 6.
  [[nodiscard]] std::vector<double> interarrival_minutes() const;

 private:
  std::vector<Checkin> events_;
};

}  // namespace geovalid::trace
