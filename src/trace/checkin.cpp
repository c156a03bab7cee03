#include "trace/checkin.h"

#include <algorithm>
#include <stdexcept>

namespace geovalid::trace {

CheckinTrace::CheckinTrace(std::vector<Checkin> events)
    : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Checkin& a, const Checkin& b) { return a.t < b.t; });
}

void CheckinTrace::append(Checkin c) {
  if (!events_.empty() && c.t < events_.back().t) {
    throw std::invalid_argument("CheckinTrace::append: timestamp regression");
  }
  events_.push_back(c);
}

double CheckinTrace::events_per_day() const {
  if (events_.size() < 2) return 0.0;
  const TimeSec span = events_.back().t - events_.front().t;
  if (span <= 0) return 0.0;
  return static_cast<double>(events_.size()) /
         (static_cast<double>(span) / static_cast<double>(kSecondsPerDay));
}

std::vector<double> CheckinTrace::interarrival_minutes() const {
  std::vector<double> gaps;
  if (events_.size() < 2) return gaps;
  gaps.reserve(events_.size() - 1);
  for (std::size_t i = 1; i < events_.size(); ++i) {
    gaps.push_back(to_minutes(events_[i].t - events_[i - 1].t));
  }
  return gaps;
}

}  // namespace geovalid::trace
