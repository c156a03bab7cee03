// CoverageLedger, the one per-user exactly-once table behind serve's
// checkpoint resume and the router's rebalance epochs: the skip rule, the
// epoch fold, the per-backend reset count, and the snapshot codec — whose
// bytes are pinned, since checkpoints written by earlier builds must keep
// restoring — plus the serve restore path's rejection of malformed
// coverage tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
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
using stream::CoverageLedger;

Coverage snapshot(const CoverageLedger& ledger) {
  Coverage out;
  ledger.collect(out);
  std::sort(out.begin(), out.end());
  return out;
}

std::string encode(Coverage coverage) {
  stream::SnapshotWriter w;
  CoverageLedger::write(w, std::move(coverage));
  return w.take();
}

TEST(CoverageLedger, SkipsWhileArrivedIsWithinThePrefix) {
  CoverageLedger ledger;
  EXPECT_FALSE(ledger.arrive(1));  // no prefix: every record applies
  ledger.set_prefix(2, 2);
  EXPECT_TRUE(ledger.arrive(2));
  EXPECT_TRUE(ledger.arrive(2));
  EXPECT_FALSE(ledger.arrive(2));  // arrived 3 > prefix 2
  EXPECT_FALSE(ledger.arrive(2));
}

TEST(CoverageLedger, EpochFoldIsMaxOfPrefixAndArrived) {
  CoverageLedger ledger;
  ledger.set_prefix(1, 5);
  for (int i = 0; i < 3; ++i) (void)ledger.arrive(1);  // a partial re-send
  ledger.set_prefix(2, 2);
  for (int i = 0; i < 7; ++i) (void)ledger.arrive(2);  // past its prefix
  // A checkpoint records the same fold the epoch change applies.
  EXPECT_EQ(snapshot(ledger), (Coverage{{1, 5}, {2, 7}}));

  EXPECT_EQ(ledger.begin_epoch([](trace::UserId) { return false; }), 0u);
  EXPECT_EQ(snapshot(ledger), (Coverage{{1, 5}, {2, 7}}));
  // Arrivals restart: user 2's re-send skips its 7 covered records.
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(ledger.arrive(2));
  EXPECT_FALSE(ledger.arrive(2));
}

TEST(CoverageLedger, ResetCountsEveryUserTheBackendOwns) {
  CoverageLedger ledger;
  for (trace::UserId u = 1; u <= 6; ++u) (void)ledger.arrive(u);
  const auto even = [](trace::UserId u) { return u % 2 == 0; };
  EXPECT_EQ(ledger.begin_epoch(even), 3u);
  EXPECT_FALSE(ledger.arrive(2));  // reset: the replacement's own resume
  EXPECT_TRUE(ledger.arrive(1));   // skip takes over; others stay covered
  // Entries outlive their reset, so replacing the same backend again
  // reports every user it owns, not only those seen since.
  EXPECT_EQ(ledger.begin_epoch(even), 3u);
}

TEST(CoverageLedger, CodecRoundTrips) {
  CoverageLedger ledger;
  ledger.set_prefix(40, 9);
  for (trace::UserId u : {7u, 3u, 7u, 40u, 1u}) (void)ledger.arrive(u);
  Coverage coverage;
  ledger.collect(coverage);
  const std::string bytes = encode(coverage);
  stream::SnapshotReader r(bytes);
  EXPECT_EQ(CoverageLedger::read(r), snapshot(ledger));
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
