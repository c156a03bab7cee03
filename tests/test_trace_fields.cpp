// The one field grammar (trace/fields.h): which numerals parse, that every
// std::to_chars rendering parses back to the same bits, and that the CSV
// reader and the wire parser read the same rows to the same bits.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <unistd.h>
#include <variant>

#include "serve/wire.h"
#include "synth/study_generator.h"
#include "trace/csv.h"
#include "trace/fields.h"

namespace geovalid::trace {
namespace {

namespace fs = std::filesystem;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class TraceFields : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("geovalid_fields_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes the tiny study under dir_; returns its first user id.
  UserId write_tiny() {
    const Dataset ds = synth::generate_study(synth::tiny_preset()).dataset;
    write_dataset_csv(ds, dir_);
    return ds.users().front().id;
  }

  /// Each data row of `file`, prefixed with `verb`, through the wire.
  template <typename OnEvent>
  void for_each_wire_row(const char* file, const std::string& verb,
                         OnEvent on_event) {
    std::ifstream in(dir_ / file);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      const serve::WireResult r = serve::parse_wire_record(verb + line);
      ASSERT_TRUE(std::holds_alternative<stream::Event>(r)) << line;
      on_event(std::get<stream::Event>(r));
    }
  }

  fs::path dir_;
};

TEST_F(TraceFields, DoubleSpellings) {
  for (const char* s : {"37.5", "-37.5", ".5", "1.", "1e5", "1E5", "-0",
                        "5e-324", "nan", "-nan", "inf", "-inf", "infinity"}) {
    double v = 0.0;
    EXPECT_TRUE(parse_double(s, v)) << "'" << s << "'";
  }
  for (const char* s : {"+37.5", " 37.5", "37.5 ", "0x1p3", "1e400", "-1e400",
                        "1e-400", ""}) {
    double v = 42.0;
    EXPECT_FALSE(parse_double(s, v)) << "'" << s << "'";
    EXPECT_EQ(v, 42.0) << "'" << s << "' wrote its output";
  }
}

TEST_F(TraceFields, UnsignedSpellings) {
  std::uint32_t v = 7;
  EXPECT_TRUE(parse_int("4294967295", v));
  EXPECT_EQ(v, 4294967295u);
  for (const char* s : {"+1", " 1", "1 ", "-1", "4294967296", "", "1.0"}) {
    v = 7;
    EXPECT_FALSE(parse_int(s, v)) << "'" << s << "'";
    EXPECT_EQ(v, 7u);
  }
}

TEST_F(TraceFields, SplitCountsFieldsAndOverflow) {
  Fields f;
  EXPECT_EQ(split_fields("", ',', f), 1u);
  EXPECT_EQ(f[0], "");
  EXPECT_EQ(split_fields("a,,b", ',', f), 3u);
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[2], "b");
  EXPECT_EQ(split_fields("1,2,3,4,5,6,7,8", ',', f), kMaxFields);
  EXPECT_EQ(f[7], "8");
  EXPECT_EQ(split_fields("1,2,3,4,5,6,7,8,", ',', f), kMaxFields + 1);
  EXPECT_EQ(split_fields("a\tb,c", '\t', f), 2u);
  EXPECT_EQ(f[1], "b,c");
}

TEST_F(TraceFields, ToCharsRenderingsRoundTripBitExact) {
  std::mt19937_64 rng(20130721);
  char buf[64];
  for (int i = 0; i < 200000; ++i) {
    std::uint64_t pattern = rng();
    if (i % 4 == 0) pattern &= 0x800FFFFFFFFFFFFFULL;  // subnormal (or 0)
    const double v = std::bit_cast<double>(pattern);
    if (v != v) continue;  // a NaN's payload is not part of its spelling
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    ASSERT_EQ(ec, std::errc{});
    const std::string_view text(buf, static_cast<std::size_t>(end - buf));
    double back = 0.0;
    ASSERT_TRUE(parse_double(text, back)) << text;
    ASSERT_EQ(bits(back), pattern) << text;
  }
}

TEST_F(TraceFields, CsvAndWireReadTheSameBits) {
  write_tiny();
  const Dataset ds = read_dataset_csv(dir_, "tiny");
  const DatasetStats stats = compute_stats(ds);
  std::map<UserId, std::size_t> next;  // rows seen per user, in file order

  std::size_t gps_rows = 0;
  for_each_wire_row("gps.csv", "gps,", [&](const stream::Event& e) {
    const UserRecord* u = ds.find_user(e.user);
    ASSERT_NE(u, nullptr);
    ASSERT_LT(next[e.user], u->gps.size());
    const GpsPoint& p = u->gps.points()[next[e.user]++];
    EXPECT_EQ(e.gps.t, p.t);
    EXPECT_EQ(bits(e.gps.position.lat_deg), bits(p.position.lat_deg));
    EXPECT_EQ(bits(e.gps.position.lon_deg), bits(p.position.lon_deg));
    EXPECT_EQ(e.gps.has_fix, p.has_fix);
    EXPECT_EQ(e.gps.wifi_fingerprint, p.wifi_fingerprint);
    EXPECT_EQ(bits(e.gps.accel_variance), bits(p.accel_variance));
    ++gps_rows;
  });
  EXPECT_EQ(gps_rows, stats.gps_points);

  next.clear();
  std::size_t checkin_rows = 0;
  for_each_wire_row("checkins.csv", "checkin,", [&](const stream::Event& e) {
    const UserRecord* u = ds.find_user(e.user);
    ASSERT_NE(u, nullptr);
    const Checkin& c = u->checkins.at(next[e.user]++);
    EXPECT_EQ(e.checkin.t, c.t);
    EXPECT_EQ(e.checkin.poi, c.poi);
    EXPECT_EQ(e.checkin.category, c.category);
    EXPECT_EQ(bits(e.checkin.location.lat_deg), bits(c.location.lat_deg));
    EXPECT_EQ(bits(e.checkin.location.lon_deg), bits(c.location.lon_deg));
    ++checkin_rows;
  });
  EXPECT_EQ(checkin_rows, stats.checkins);
}

TEST_F(TraceFields, LeadingPlusIsMalformedBothWaysIn) {
  const std::string row = std::to_string(write_tiny()) + ",0,+37.5,2.0,1,0,0.1";
  {
    std::ofstream out(dir_ / "gps.csv");
    out << "user,t,lat,lon,has_fix,wifi,accel_var\n" << row << "\n";
  }
  try {
    read_dataset_csv(dir_, "x");
    FAIL() << "expected IngestError";
  } catch (const IngestError& e) {
    EXPECT_NE(std::string(e.what()).find("gps.csv:2: bad lat field"),
              std::string::npos)
        << e.what();
  }
  const serve::WireResult r = serve::parse_wire_record("gps," + row);
  ASSERT_TRUE(std::holds_alternative<serve::WireError>(r));
  EXPECT_EQ(std::get<serve::WireError>(r).message, "bad lat field");
}

}  // namespace
}  // namespace geovalid::trace
