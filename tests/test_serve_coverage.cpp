// The one per-user exactly-once rule behind serve's checkpoint resume and
// the router's rebalance epochs — CoverageEntry's skip rule, its epoch
// fold and the per-backend reset count — and CoverageLedger, the serve
// checkpoint's coverage codec, whose bytes are pinned, since checkpoints
// written by earlier builds must keep restoring, plus the serve restore
// path's rejection of malformed coverage tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>

#include "serve/server.h"
#include "stream/checkpoint.h"
#include "stream/coverage.h"
#include "stream/engine.h"
#include "stream/snapshot_io.h"

namespace geovalid::serve {
namespace {

namespace fs = std::filesystem;
using stream::Coverage;
using stream::CoverageEntry;
using stream::CoverageLedger;

/// Users and their entries, as a shard or the router keeps them.
using Entries = std::map<trace::UserId, CoverageEntry>;

/// What a checkpoint records: (user, covered) for every covered user.
Coverage snapshot(const Entries& entries) {
  Coverage out;
  for (const auto& [user, e] : entries) {
    if (e.covered() > 0) out.emplace_back(user, e.covered());
  }
  return out;
}

std::string encode(Coverage coverage) {
  stream::SnapshotWriter w;
  CoverageLedger::write(w, std::move(coverage));
  return w.take();
}

TEST(CoverageLedger, SkipsWhileArrivedIsWithinThePrefix) {
  CoverageEntry fresh;
  EXPECT_FALSE(fresh.arrive());  // no prefix: every record applies
  CoverageEntry resumed{0, 2};
  EXPECT_TRUE(resumed.arrive());
  EXPECT_TRUE(resumed.arrive());
  EXPECT_FALSE(resumed.arrive());  // arrived 3 > prefix 2
  EXPECT_FALSE(resumed.arrive());
}

TEST(CoverageLedger, EpochFoldIsMaxOfPrefixAndArrived) {
  Entries entries{{1, {0, 5}}, {2, {0, 2}}};
  for (int i = 0; i < 3; ++i) (void)entries[1].arrive();  // a partial re-send
  for (int i = 0; i < 7; ++i) (void)entries[2].arrive();  // past its prefix
  // A checkpoint records the same fold the epoch change applies.
  EXPECT_EQ(snapshot(entries), (Coverage{{1, 5}, {2, 7}}));

  for (auto& [user, e] : entries) e.begin_epoch(false);
  EXPECT_EQ(snapshot(entries), (Coverage{{1, 5}, {2, 7}}));
  EXPECT_EQ(entries[2].arrived, 0u);
  // Arrivals restart: user 2's re-send skips its 7 covered records.
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(entries[2].arrive());
  EXPECT_FALSE(entries[2].arrive());
}

TEST(CoverageLedger, ResetCountsEveryUserTheBackendOwns) {
  // The router's epoch: every entry folds, the replaced backend's users
  // (here the even ones) reset, and the reset users are counted.
  Entries entries;
  for (trace::UserId u = 1; u <= 6; ++u) (void)entries[u].arrive();
  const auto begin_epoch = [&entries] {
    std::uint64_t reset_users = 0;
    for (auto& [user, e] : entries) {
      e.begin_epoch(user % 2 == 0);
      reset_users += user % 2 == 0 ? 1 : 0;
    }
    return reset_users;
  };
  EXPECT_EQ(begin_epoch(), 3u);
  EXPECT_FALSE(entries[2].arrive());  // reset: the replacement's own resume
  EXPECT_TRUE(entries[1].arrive());   // skip takes over; others stay covered
  // Entries outlive their reset, so replacing the same backend again
  // reports every user it owns, not only those seen since.
  EXPECT_EQ(begin_epoch(), 3u);
  EXPECT_EQ(entries[4].prefix, 0u);
  EXPECT_EQ(entries[1].prefix, 1u);
}

TEST(CoverageLedger, CodecRoundTrips) {
  Entries entries{{40, {0, 9}}};
  for (trace::UserId u : {7u, 3u, 7u, 40u, 1u}) (void)entries[u].arrive();
  Coverage coverage = snapshot(entries);
  std::reverse(coverage.begin(), coverage.end());  // write() sorts
  const std::string bytes = encode(coverage);
  stream::SnapshotReader r(bytes);
  EXPECT_EQ(CoverageLedger::read(r), snapshot(entries));
  EXPECT_TRUE(r.exhausted());
}

TEST(CoverageLedger, GoldenBytesPinTheServeCoverageLayout) {
  // u64 count, then (u32 id, u64 count) sorted by id, all little-endian:
  // checkpoints already on disk carry this layout and must keep restoring.
  const std::string expected(
      "\x02\x00\x00\x00\x00\x00\x00\x00"
      "\x02\x00\x00\x00"
      "\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x07\x01\x00\x00"
      "\x03\x00\x00\x00\x00\x00\x00\x00",
      32);
  EXPECT_EQ(encode({{263, 3}, {2, 1}}), expected);
}

TEST(CoverageLedger, ReadRejectsZeroCountsAndDuplicateIds) {
  stream::SnapshotWriter zero;
  zero.u64(1);
  zero.u32(5);
  zero.u64(0);
  const std::string zero_bytes = zero.take();
  stream::SnapshotReader zr(zero_bytes);
  EXPECT_THROW(CoverageLedger::read(zr), stream::SnapshotError);

  stream::SnapshotWriter dup;
  dup.u64(2);
  dup.u32(5);
  dup.u64(1);
  dup.u32(5);
  dup.u64(2);
  const std::string dup_bytes = dup.take();
  stream::SnapshotReader dr(dup_bytes);
  EXPECT_THROW(CoverageLedger::read(dr), stream::SnapshotError);
}

/// A serve checkpoint around `coverage_bytes` (plus `tail`), restored by a
/// fresh daemon's start().
void restore_serve_checkpoint(const char* name,
                              const std::string& coverage_bytes,
                              const std::string& tail) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  stream::SnapshotWriter engine;
  engine.blob(stream::StreamEngine(stream::StreamEngineConfig{}).save_state());
  (void)stream::write_checkpoint(
      dir, {0, coverage_bytes + engine.take() + tail});
  ServeConfig config;
  config.metrics = false;
  config.checkpoint_dir = dir;
  config.resume = true;
  Server server(std::move(config));
  server.start();
}

TEST(CoverageLedger, ServeRestoreRejectsMalformedTables) {
  EXPECT_NO_THROW(
      restore_serve_checkpoint("coverage_ok", encode({{5, 1}}), ""));
  stream::SnapshotWriter zero;
  zero.u64(1);
  zero.u32(5);
  zero.u64(0);
  EXPECT_THROW(restore_serve_checkpoint("coverage_zero", zero.take(), ""),
               stream::SnapshotError);
  EXPECT_THROW(restore_serve_checkpoint("coverage_dup",
                                        encode({{5, 1}, {5, 2}}), ""),
               stream::SnapshotError);
  EXPECT_THROW(restore_serve_checkpoint("coverage_tail", encode({{5, 1}}),
                                        std::string("\x00", 1)),
               stream::SnapshotError);
}

}  // namespace
}  // namespace geovalid::serve
