// Unit tests for checkin traces.
#include <gtest/gtest.h>

#include "trace/checkin.h"

namespace geovalid::trace {
namespace {

Checkin ck(TimeSec t) {
  Checkin c;
  c.t = t;
  return c;
}

TEST(CheckinTrace, SortsOnConstruction) {
  CheckinTrace trace({ck(30), ck(10), ck(20)});
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.at(0).t, 10);
  EXPECT_EQ(trace.at(2).t, 30);
}

TEST(CheckinTrace, AppendEnforcesOrder) {
  CheckinTrace trace;
  trace.append(ck(100));
  trace.append(ck(100));
  EXPECT_THROW(trace.append(ck(99)), std::invalid_argument);
}

TEST(CheckinTrace, EventsPerDay) {
  // 4 events across 3 days.
  CheckinTrace trace(
      {ck(0), ck(kSecondsPerDay), ck(2 * kSecondsPerDay),
       ck(3 * kSecondsPerDay)});
  EXPECT_NEAR(trace.events_per_day(), 4.0 / 3.0, 1e-12);

  CheckinTrace single({ck(5)});
  EXPECT_DOUBLE_EQ(single.events_per_day(), 0.0);
  CheckinTrace sametime({ck(5), ck(5)});
  EXPECT_DOUBLE_EQ(sametime.events_per_day(), 0.0);
}

TEST(CheckinTrace, InterarrivalMinutes) {
  CheckinTrace trace({ck(0), ck(60), ck(300)});
  const auto gaps = trace.interarrival_minutes();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 1.0);
  EXPECT_DOUBLE_EQ(gaps[1], 4.0);
  EXPECT_TRUE(CheckinTrace({ck(5)}).interarrival_minutes().empty());
}

}  // namespace
}  // namespace geovalid::trace
