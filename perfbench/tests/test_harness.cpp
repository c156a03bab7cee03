// The benchmark's own arithmetic: the percentile and tail rules, the
// open-loop schedule, the pre-encoded load split, and the JSON lines.
#include <gtest/gtest.h>

#include <charconv>
#include <numeric>
#include <variant>

#include "harness.h"
#include "loadgen.h"
#include "serve/wire.h"
#include "stream/replay.h"
#include "synth/study_generator.h"

namespace {

using namespace perfbench;
using namespace std::chrono_literals;
using geovalid::stream::Event;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 50), 50);
  EXPECT_EQ(percentile(one_to(100), 99), 99);
  EXPECT_EQ(percentile(one_to(100), 100), 100);
  EXPECT_EQ(percentile(one_to(100), 0), 1);
  EXPECT_EQ(percentile(one_to(10), 95), 10);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  Tail t = tail(one_to(100));
  EXPECT_EQ(t.percentile, 90);  // rank 90 leaves 10 beyond; p95 leaves 5
  EXPECT_EQ(t.value, 90);
  EXPECT_EQ(t.samples, 100u);
  t = tail(one_to(1000));
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.value, 990);
  t = tail(one_to(10000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.value, 9990);
  t = tail(one_to(20));
  EXPECT_EQ(t.percentile, 50);  // rank 10 leaves exactly 10 beyond
  EXPECT_EQ(t.value, 10);
  t = tail(one_to(19));  // no ladder step qualifies: the maximum
  EXPECT_EQ(t.percentile, 100);
  EXPECT_EQ(t.value, 19);
  EXPECT_EQ(tail({}).samples, 0u);
}

TEST(HistogramPercentile, InterpolatesInsideTheLog2Bucket) {
  geovalid::obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(1000);  // bucket [512, 1023]
  EXPECT_DOUBLE_EQ(histogram_percentile(h.snapshot(), 50), 512 + 0.5 * 511);
  EXPECT_DOUBLE_EQ(histogram_percentile(h.snapshot(), 100), 1023);
  geovalid::obs::Histogram z;
  EXPECT_EQ(histogram_percentile(z.snapshot(), 99), 0);
  z.observe(0);
  EXPECT_EQ(histogram_percentile(z.snapshot(), 99), 0);
}

TEST(OpenLoop, DueTimesFollowTheRate) {
  const Clock::time_point start = Clock::now();
  const OpenLoop s(start, 1000.0);
  EXPECT_EQ(s.due(0), start);
  EXPECT_NEAR(ms_between(start, s.due(1000)), 1000.0, 1e-6);
  EXPECT_NEAR(ms_between(start, s.due(1)), 1.0, 1e-6);
  EXPECT_EQ(s.due_count(start - 1ms), 0u);
  EXPECT_EQ(s.due_count(start), 1u);
  EXPECT_EQ(s.due_count(start + 999us), 1u);
  EXPECT_EQ(s.due_count(start + 1ms), 2u);
  EXPECT_EQ(s.due_count(start + 1s), 1001u);
}

TEST(OpenLoop, LagIsTimeSinceTheFirstUnprocessedEventWasDue) {
  const Clock::time_point start = Clock::now();
  const OpenLoop s(start, 1000.0);
  // 500 processed: event 500 was due at +500 ms; at +600 ms it lags 100.
  EXPECT_NEAR(s.lag_ms(500, 1000, start + 600ms), 100.0, 1e-6);
  EXPECT_EQ(s.lag_ms(700, 1000, start + 600ms), 0.0);   // ahead of schedule
  EXPECT_EQ(s.lag_ms(1000, 1000, start + 5s), 0.0);     // all processed
}

TEST(OpenLoop, LatenessIsStartMinusDue) {
  const Clock::time_point start = Clock::now();
  const OpenLoop s(start, 100.0);
  EXPECT_NEAR(s.late_ms(10, s.due(10) + 3ms), 3.0, 1e-6);
  EXPECT_EQ(s.late_ms(10, s.due(10) - 3ms), 0.0);
}

/// Decodes one connection's bytes back into events.
std::vector<Event> decode(const std::string& bytes, Wire format) {
  std::vector<Event> out;
  if (format == Wire::kText) {
    geovalid::serve::LineDecoder d;
    d.feed(bytes);
    while (const auto line = d.next()) {
      out.push_back(std::get<Event>(geovalid::serve::parse_wire_record(line->text)));
    }
  } else {
    geovalid::serve::BinaryFrameDecoder d;
    d.feed(bytes);
    while (const auto r = d.next()) {
      const auto& f = std::get<geovalid::serve::BinaryFrameDecoder::Frame>(*r);
      out.insert(out.end(), f.events.begin(), f.events.end());
    }
  }
  return out;
}

TEST(EncodeLoad, EachUsersRecordsRideOneConnectionInOrder) {
  const auto study = geovalid::synth::generate_study(geovalid::synth::tiny_preset());
  const std::vector<Event> events = geovalid::stream::flatten_dataset(study.dataset);
  const std::vector<Wire> formats = {Wire::kText, Wire::kText, Wire::kBinary,
                                     Wire::kBinary};
  const WireLoad load = encode_load(events, formats, true);
  ASSERT_EQ(load.events, events.size());
  std::size_t total = 0;
  for (std::size_t c = 0; c < formats.size(); ++c) {
    std::vector<Event> expected;
    for (const Event& e : events) {
      if (e.user % formats.size() == c) expected.push_back(e);
    }
    const std::vector<Event> got = decode(load.bytes[c], formats[c]);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].user, expected[i].user);
      EXPECT_EQ(got[i].time(), expected[i].time());
      EXPECT_EQ(got[i].kind, expected[i].kind);
    }
    // Paced offsets: schedule indices ascend, byte ends never go back and
    // the last one is the whole buffer.
    ASSERT_EQ(load.index[c].size(), expected.size());
    EXPECT_TRUE(std::is_sorted(load.index[c].begin(), load.index[c].end()));
    EXPECT_TRUE(std::is_sorted(load.end[c].begin(), load.end[c].end()));
    if (!load.end[c].empty()) EXPECT_EQ(load.end[c].back(), load.bytes[c].size());
    total += got.size();
  }
  EXPECT_EQ(total, events.size());
}

TEST(Json, ResultLineHasExactlyTheContractKeys) {
  EXPECT_EQ(result_line(true, 3, 0, {{"setup_s", 1.5, "s"}}),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":"
            "{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}}}");
  for (const double v : {0.1, 1e-300, 12345.678, 1.0 / 3.0}) {
    const std::string s = json_number(v);
    double back = 0.0;
    std::from_chars(s.data(), s.data() + s.size(), back);
    EXPECT_EQ(back, v) << s;
  }
}

}  // namespace
