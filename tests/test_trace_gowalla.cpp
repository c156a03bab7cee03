// Tests for the SNAP (Gowalla/Brightkite) checkin importer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "trace/gowalla.h"

namespace geovalid::trace {
namespace {

namespace fs = std::filesystem;

class GowallaImport : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = fs::temp_directory_path() / "geovalid_gowalla_test.txt";
  }
  void TearDown() override { fs::remove(file_); }

  void write(const std::string& content) {
    std::ofstream out(file_);
    out << content;
  }

  fs::path file_;
};

TEST_F(GowallaImport, ParsesWellFormedRows) {
  write(
      "0\t2010-10-19T23:55:27Z\t30.2359091167\t-97.7951395833\t22847\n"
      "0\t2010-10-18T22:17:43Z\t30.2691029532\t-97.7493953705\t420315\n"
      "1\t2010-10-17T23:42:03Z\t40.6438845363\t-73.7828063965\t316637\n");
  const Dataset ds = read_gowalla_checkins(file_, "snap");

  EXPECT_EQ(ds.name(), "snap");
  EXPECT_EQ(ds.user_count(), 2u);
  EXPECT_EQ(ds.pois().size(), 3u);

  const UserRecord* u0 = ds.find_user(0);
  ASSERT_NE(u0, nullptr);
  ASSERT_EQ(u0->checkins.size(), 2u);
  // Events are time-sorted: the 18th comes before the 19th.
  EXPECT_LT(u0->checkins.at(0).t, u0->checkins.at(1).t);
  EXPECT_EQ(u0->checkins.at(1).poi, 22848u);  // SNAP id 22847 shifted by 1
  EXPECT_NEAR(u0->checkins.at(1).location.lat_deg, 30.2359091167, 1e-9);

  // GPS-free import: no visits, no GPS points.
  EXPECT_TRUE(u0->gps.empty());
  EXPECT_TRUE(u0->visits.empty());
}

TEST_F(GowallaImport, KnownTimestampValue) {
  write("5\t2010-01-01T00:00:00Z\t10.0\t20.0\t7\n");
  const Dataset ds = read_gowalla_checkins(file_, "t");
  ASSERT_EQ(ds.user_count(), 1u);
  // 2010-01-01T00:00:00Z == 1262304000.
  EXPECT_EQ(ds.users()[0].checkins.at(0).t, 1262304000);
}

TEST_F(GowallaImport, SkipsInvalidRowsByDefault) {
  write(
      "0\t2010-10-19T23:55:27Z\t30.0\t-97.0\t1\n"
      "0\tnot-a-time\t30.0\t-97.0\t2\n"
      "0\t2010-10-19T23:59:27Z\t99.0\t-997.0\t3\n"   // bad coordinates
      "0\t2010-10-20T10:00:00Z\t31.0\t-97.5\t4\n");
  const Dataset ds = read_gowalla_checkins(file_, "t");
  ASSERT_EQ(ds.user_count(), 1u);
  EXPECT_EQ(ds.users()[0].checkins.size(), 2u);
}

TEST_F(GowallaImport, StrictModeThrowsOnBadRow) {
  write("0\tnot-a-time\t30.0\t-97.0\t2\n");
  GowallaImportOptions opts;
  opts.skip_invalid_rows = false;
  EXPECT_THROW(read_gowalla_checkins(file_, "t", opts), std::runtime_error);
}

TEST_F(GowallaImport, MaxUsersCapRespected) {
  write(
      "0\t2010-10-19T23:55:27Z\t30.0\t-97.0\t1\n"
      "1\t2010-10-19T23:55:27Z\t30.0\t-97.0\t1\n"
      "2\t2010-10-19T23:55:27Z\t30.0\t-97.0\t1\n"
      "0\t2010-10-20T23:55:27Z\t30.0\t-97.0\t2\n");
  GowallaImportOptions opts;
  opts.max_users = 2;
  const Dataset ds = read_gowalla_checkins(file_, "t", opts);
  EXPECT_EQ(ds.user_count(), 2u);
  // Capped-out users are dropped, but existing users keep accumulating.
  EXPECT_EQ(ds.find_user(0)->checkins.size(), 2u);
  EXPECT_EQ(ds.find_user(2), nullptr);
}

TEST_F(GowallaImport, VenuePositionIsFirstSeen) {
  write(
      "0\t2010-10-19T23:55:27Z\t30.0\t-97.0\t9\n"
      "1\t2010-10-20T23:55:27Z\t30.1\t-97.1\t9\n");  // drifted duplicate
  const Dataset ds = read_gowalla_checkins(file_, "t");
  const Poi& venue = ds.pois().at(10);  // id 9 + 1
  EXPECT_NEAR(venue.location.lat_deg, 30.0, 1e-9);
  // Both checkins carry the canonical venue position.
  EXPECT_NEAR(ds.find_user(1)->checkins.at(0).location.lat_deg, 30.0, 1e-9);
}

TEST_F(GowallaImport, MissingFileThrows) {
  EXPECT_THROW(read_gowalla_checkins(file_ / "nope", "t"),
               std::runtime_error);
}

TEST_F(GowallaImport, OutOfOrderRowsAreTimeSortedPerUser) {
  // SNAP dumps are reverse-chronological; the importer must hand each user
  // a time-ascending trace regardless of row order.
  write(
      "0\t2010-10-21T08:00:00Z\t30.0\t-97.0\t3\n"
      "0\t2010-10-19T08:00:00Z\t30.0\t-97.0\t1\n"
      "0\t2010-10-20T08:00:00Z\t30.0\t-97.0\t2\n"
      "0\t2010-10-20T08:00:00Z\t30.0\t-97.0\t4\n");  // duplicate timestamp
  const Dataset ds = read_gowalla_checkins(file_, "t");
  ASSERT_EQ(ds.user_count(), 1u);
  const CheckinTrace& c = ds.users()[0].checkins;
  ASSERT_EQ(c.size(), 4u);
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_LE(c.at(i - 1).t, c.at(i).t) << "index " << i;
  }
  EXPECT_EQ(c.at(0).poi, 2u);   // id 1 + 1, earliest row
  EXPECT_EQ(c.at(3).poi, 4u);   // id 3 + 1, latest row
}

TEST_F(GowallaImport, RowWithTooFewFieldsIsSkipped) {
  write(
      "0\t2010-10-19T23:55:27Z\t30.0\t-97.0\t1\n"
      "0\t2010-10-20T23:55:27Z\t30.0\n"  // truncated row
      "0\t2010-10-21T23:55:27Z\t30.0\t-97.0\t2\n");
  const Dataset ds = read_gowalla_checkins(file_, "t");
  ASSERT_EQ(ds.user_count(), 1u);
  EXPECT_EQ(ds.users()[0].checkins.size(), 2u);

  GowallaImportOptions opts;
  opts.skip_invalid_rows = false;
  EXPECT_THROW(read_gowalla_checkins(file_, "t", opts), std::runtime_error);
}

TEST_F(GowallaImport, FinalLineWithoutNewlineParses) {
  write(
      "0\t2010-10-19T23:55:27Z\t30.0\t-97.0\t1\n"
      "0\t2010-10-20T23:55:27Z\t30.0\t-97.0\t2");  // no trailing newline
  const Dataset ds = read_gowalla_checkins(file_, "t");
  ASSERT_EQ(ds.user_count(), 1u);
  EXPECT_EQ(ds.users()[0].checkins.size(), 2u);
}

TEST_F(GowallaImport, WindowsLineEndingsHandled) {
  write("0\t2010-10-19T23:55:27Z\t30.0\t-97.0\t1\r\n");
  const Dataset ds = read_gowalla_checkins(file_, "t");
  ASSERT_EQ(ds.user_count(), 1u);
  EXPECT_EQ(ds.users()[0].checkins.size(), 1u);
}

TEST_F(GowallaImport, StrictImportSkipsBlankCrlfLine) {
  // A blank CRLF line is blank once its '\r' is stripped, as with LF.
  write(
      "0\t2010-10-19T23:55:27Z\t30.0\t-97.0\t1\r\n"
      "\r\n"
      "1\t2010-10-20T23:55:27Z\t31.0\t-97.0\t2\r\n");
  GowallaImportOptions opts;
  opts.skip_invalid_rows = false;
  const Dataset ds = read_gowalla_checkins(file_, "t", opts);
  EXPECT_EQ(ds.user_count(), 2u);
}

}  // namespace
}  // namespace geovalid::trace
