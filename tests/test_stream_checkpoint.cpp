// Checkpoint format coverage: snapshot primitive roundtrips, full engine
// state roundtrip (every shard-state field must survive save -> load ->
// save byte-identically), container rejection of truncated / corrupted /
// wrong-version files, config-fingerprint refusal, restore_latest
// fallback order (an unlistable directory throws), and the two-file
// retention of write_checkpoint.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "geo/latlon.h"
#include "match/pipeline.h"
#include "stats/rng.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/quarantine.h"
#include "stream/replay.h"
#include "stream/snapshot_io.h"
#include "synth/config.h"
#include "synth/study_generator.h"

namespace geovalid::stream {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

TEST(SnapshotIo, PrimitiveRoundtrip) {
  SnapshotWriter w;
  w.u8(0x7F);
  w.u32(0xDEADBEEFu);
  w.u64(0xFEEDFACECAFEBEEFull);
  w.i64(-1234567890123456789LL);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(-119.69820000000001);
  w.f64(0.0);
  w.boolean(true);
  w.boolean(false);

  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0xFEEDFACECAFEBEEFull);
  EXPECT_EQ(r.i64(), -1234567890123456789LL);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.f64(), -119.69820000000001);
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotIo, ReadPastEndThrows) {
  SnapshotWriter w;
  w.u32(7);
  SnapshotReader r(w.bytes());
  (void)r.u32();
  EXPECT_THROW(r.u8(), SnapshotError);
}

TEST(SnapshotIo, BadBooleanThrows) {
  SnapshotWriter w;
  w.u8(2);
  SnapshotReader r(w.bytes());
  EXPECT_THROW(r.boolean(), SnapshotError);
}

TEST(SnapshotIo, OversizedLengthThrows) {
  SnapshotWriter w;
  w.u64(1ull << 40);  // sequence length far beyond the payload
  SnapshotReader r(w.bytes());
  EXPECT_THROW(r.length(), SnapshotError);
}

/// Bit-at-a-time CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320):
/// the definition, independent of any lookup table. Advances the running
/// (pre-inverted) CRC `c` over `data`.
std::uint32_t reference_update(std::uint32_t c, std::string_view data) {
  for (const char ch : data) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c;
}

std::uint32_t reference_crc32(std::string_view data) {
  return reference_update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

// Frames, checkpoints and .gvsm models all carry this CRC, so its values
// are part of three formats: any loop that computes it must agree with
// the definition at every length and start offset.
TEST(SnapshotIo, Crc32MatchesTheIeeeReferenceAtEveryLengthAndOffset) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  std::string buf(72, '\0');
  std::uint32_t x = 0x9E3779B9u;
  for (char& ch : buf) {
    x = x * 1664525u + 1013904223u;
    ch = static_cast<char>(x >> 24);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view view = std::string_view(buf).substr(off, len);
      EXPECT_EQ(crc32(view), reference_crc32(view))
          << "offset " << off << " length " << len;
    }
  }
}

// crc32 folds inputs of 64 bytes or more by carry-less multiplication on
// x86-64 CPUs that have it and runs slicing-by-8 tables for the rest (and
// everywhere on other CPUs), so on such a CPU this compares the two paths
// and the definition directly: every length to 4096 at several offsets,
// the lengths around the fold threshold, and large random buffers.
TEST(SnapshotIo, Crc32PathsAgreeWithTheBitwiseReference) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(detail::crc32_slicing_by_8("123456789"), 0xCBF43926u);
  stats::Rng rng(20);
  const auto random_bytes = [&rng](std::size_t n) {
    std::string out(n, '\0');
    for (char& ch : out) ch = static_cast<char>(rng.uniform_int(0, 255));
    return out;
  };
  const auto expect_agree = [](std::string_view view, std::uint32_t want) {
    ASSERT_EQ(crc32(view), want) << "length " << view.size();
    ASSERT_EQ(detail::crc32_slicing_by_8(view), want)
        << "length " << view.size();
  };
  const std::string buf = random_bytes(4096 + 13);
  for (const std::size_t off : {0, 1, 7, 13}) {
    std::uint32_t c = 0xFFFFFFFFu;  // the reference, one byte per length
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::string_view view = std::string_view(buf).substr(off, len);
      if (len > 0) c = reference_update(c, view.substr(len - 1));
      expect_agree(view, c ^ 0xFFFFFFFFu);
      if (HasFatalFailure()) FAIL() << "offset " << off;
    }
  }
  for (const std::size_t len : {63, 64, 65, 79, 80}) {
    const std::string bytes = random_bytes(len);
    expect_agree(bytes, reference_crc32(bytes));
  }
  for (int i = 0; i < 64; ++i) {
    const std::string bytes = random_bytes(
        static_cast<std::size_t>(rng.uniform_int(0, 1 << 20)));
    expect_agree(bytes, reference_crc32(bytes));
  }
}

// Engine save/load: the payload must capture EVERY shard-state field.
// Feeding a study populates detector windows, matcher pending/deferred
// queues and GPS buffers, verdict counters and per-user clocks; the
// save -> load -> save fixed point then proves no field is dropped or
// mutated by (de)serialization.
TEST(Checkpoint, EngineStateSurvivesSaveLoadSaveByteIdentically) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  const std::vector<Event> events = flatten_dataset(study.dataset);
  const std::size_t half = events.size() / 2;

  StreamEngine a{StreamEngineConfig{}};
  for (std::size_t i = 0; i < half; ++i) a.push(events[i]);
  const std::string bytes = a.save_state();

  StreamEngine b{StreamEngineConfig{}};
  b.load_state(bytes);
  EXPECT_EQ(b.save_state(), bytes);
}

/// FNV-1a 64 over `bytes`: a golden digest for payloads too long to pin as
/// a literal.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// A scripted two-user stream whose checkpoint holds every kind of per-user
// state: user 11 leaves a pruned GPS window (samples older than
// max_gps_gap popped off its front) and a deferred classification (beta = 0
// finalizes a checkin before any GPS sample follows it), user 12 an open
// stay with two pending checkins; user 13 is covered by a restored prefix
// only, and user 14's one record quarantines. The coverage table plus
// save_state() are pinned by length and digest, captured before the
// engine's per-user containers were reworked: any change to the layout or
// the iteration order of that state changes them.
TEST(Checkpoint, GoldenBytesPinCoverageAndEngineState) {
  const geo::LatLon venue{34.4208, -119.6982};
  const geo::LatLon stay{34.4300, -119.6900};
  const auto fix = [](trace::UserId user, trace::TimeSec t, geo::LatLon at) {
    return Event::gps_sample(user, trace::GpsPoint{t, at, true, 0, 0.0});
  };
  const auto checkin = [](trace::UserId user, trace::TimeSec t,
                          geo::LatLon at) {
    trace::Checkin c;
    c.t = t;
    c.poi = 40 + user;
    c.category = trace::PoiCategory::kFood;
    c.location = at;
    return Event::checkin_event(user, c);
  };

  std::vector<Event> events;
  for (int m = 0; m <= 20; ++m) {
    events.push_back(fix(11, trace::minutes(m), venue));
    if (m <= 8) events.push_back(fix(12, trace::minutes(m), stay));
    if (m == 5) events.push_back(fix(14, trace::minutes(m), {95.0, 0.0}));
  }
  events.push_back(checkin(12, trace::minutes(8), stay));
  events.push_back(checkin(12, trace::minutes(9), stay));
  // 300 m east: breaks user 11's stay, but inside the remote radius.
  events.push_back(fix(11, trace::minutes(21), {34.4208, -119.6949}));
  events.push_back(checkin(11, trace::minutes(21), venue));

  Quarantine quarantine(QuarantineConfig{{}, /*metrics=*/false});
  StreamEngineConfig config;
  config.shards = 2;
  config.metrics = false;
  config.match.beta = 0;
  config.quarantine = &quarantine;
  StreamEngine engine(config);
  engine.restore_coverage({{11, 2}, {13, 5}});
  for (const Event& e : events) engine.push(e);

  SnapshotWriter w;
  CoverageLedger::write(w, engine.coverage());
  const std::string bytes = w.take() + engine.save_state();

  EXPECT_EQ(engine.user_count(), 2u);
  EXPECT_EQ(engine.events_replayed(), 2u);
  EXPECT_EQ(quarantine.total(), 1u);
  const auto deferring = engine.user_verdicts(11);
  ASSERT_TRUE(deferring.has_value());
  EXPECT_EQ(deferring->partition.extraneous, 1u);
  EXPECT_EQ(deferring->partition.missing, 1u);
  std::size_t classified = 0;
  for (const std::size_t n : deferring->partition.by_class) classified += n;
  EXPECT_EQ(classified, 0u);  // the extraneous checkin's class is deferred
  const auto pending = engine.user_verdicts(12);
  ASSERT_TRUE(pending.has_value());
  EXPECT_EQ(pending->partition.checkins, 2u);
  EXPECT_EQ(pending->partition.extraneous + pending->partition.honest, 0u);

  EXPECT_EQ(bytes.size(), 1483u);
  EXPECT_EQ(fnv1a64(bytes), 9654420350637515177ULL);
}

TEST(Checkpoint, StateBytesAreShardCountIndependent) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  const std::vector<Event> events = flatten_dataset(study.dataset);
  const std::size_t half = events.size() / 2;

  std::string reference;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    StreamEngineConfig config;
    config.shards = shards;
    StreamEngine engine(config);
    for (std::size_t i = 0; i < half; ++i) engine.push(events[i]);
    const std::string bytes = engine.save_state();
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "shards=" << shards;
    }
  }
  ASSERT_FALSE(reference.empty());
}

TEST(Checkpoint, LoadIntoDifferentConfigRefuses) {
  StreamEngine a{StreamEngineConfig{}};
  const std::string bytes = a.save_state();

  StreamEngineConfig other;
  other.match.alpha_m = 100.0;  // semantically different pipeline
  StreamEngine b(other);
  try {
    b.load_state(bytes);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kConfigMismatch);
  }
}

TEST(Checkpoint, ShardCountIsNotPartOfTheFingerprint) {
  StreamEngineConfig four;
  four.shards = 4;
  StreamEngine a(four);
  const std::string bytes = a.save_state();

  StreamEngineConfig one;
  one.shards = 1;
  StreamEngine b(one);
  EXPECT_NO_THROW(b.load_state(bytes));
}

TEST(Checkpoint, LoadIntoUsedEngineThrows) {
  StreamEngine a{StreamEngineConfig{}};
  const std::string bytes = a.save_state();

  StreamEngine b{StreamEngineConfig{}};
  b.push(Event::gps_sample(1, trace::GpsPoint{0, {34.0, -119.0}, true, 0, 0.0}));
  EXPECT_THROW(b.load_state(bytes), std::logic_error);
}

TEST(Checkpoint, TrailingBytesRejected) {
  StreamEngine a{StreamEngineConfig{}};
  std::string bytes = a.save_state();
  bytes.push_back('\0');
  StreamEngine b{StreamEngineConfig{}};
  EXPECT_THROW(b.load_state(bytes), SnapshotError);
}

TEST(Checkpoint, ContainerRoundtrip) {
  Checkpoint ck;
  ck.cursor = 123456789;
  ck.payload = "engine-state-payload\x01\x02\x00more";
  // Embedded NULs must survive: the payload is binary.
  ck.payload.push_back('\0');
  const std::string bytes = encode_checkpoint(ck);
  const Checkpoint back = decode_checkpoint(bytes);
  EXPECT_EQ(back.cursor, ck.cursor);
  EXPECT_EQ(back.payload, ck.payload);
}

TEST(Checkpoint, EveryTruncationIsRejected) {
  Checkpoint ck;
  ck.cursor = 42;
  ck.payload = "0123456789abcdef";
  const std::string bytes = encode_checkpoint(ck);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    try {
      (void)decode_checkpoint(std::string_view(bytes).substr(0, len));
      FAIL() << "truncation to " << len << " bytes accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointError::Kind::kCorrupt) << "len " << len;
    }
  }
}

TEST(Checkpoint, EveryFlippedByteIsRejected) {
  Checkpoint ck;
  ck.cursor = 7;
  ck.payload = "payload-bytes";
  const std::string good = encode_checkpoint(ck);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    // A flip lands on magic, version, sizes, payload or CRC — every one
    // must be caught (version flips report kVersionMismatch, the rest
    // kCorrupt; nothing decodes successfully).
    EXPECT_THROW((void)decode_checkpoint(bad), CheckpointError)
        << "flipped byte " << i;
  }
}

TEST(Checkpoint, VersionMismatchIsItsOwnKind) {
  Checkpoint ck;
  ck.payload = "p";
  std::string bytes = encode_checkpoint(ck);
  bytes[4] = static_cast<char>(kCheckpointVersion + 1);  // little-endian LSB
  // Re-stamp the CRC so only the version differs from a valid file.
  const std::string body = bytes.substr(0, bytes.size() - 4);
  SnapshotWriter w;
  w.u32(crc32(body));
  bytes = body + w.bytes();
  try {
    (void)decode_checkpoint(bytes);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kVersionMismatch);
  }
}

TEST(Checkpoint, RestoreLatestPrefersNewestValid) {
  const fs::path dir = fresh_dir("ck_latest");
  write_checkpoint(dir, {100, "old"});
  write_checkpoint(dir, {200, "new"});
  const auto ck = restore_latest(dir);
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->cursor, 200u);
  EXPECT_EQ(ck->payload, "new");
}

TEST(Checkpoint, RestoreLatestFallsBackPastCorruptFile) {
  const fs::path dir = fresh_dir("ck_fallback");
  write_checkpoint(dir, {100, "old"});
  const fs::path newest = write_checkpoint(dir, {200, "new"});
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << "torn write";
  }
  const auto ck = restore_latest(dir);
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->cursor, 100u);
  EXPECT_EQ(ck->payload, "old");
}

/// The checkpoint files in `dir`, in name (= cursor) order.
std::vector<std::string> checkpoint_files(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(Checkpoint, FiftyWritesLeaveTheNewestTwo) {
  const fs::path dir = fresh_dir("ck_retention");
  for (std::uint64_t i = 1; i <= 50; ++i) {
    write_checkpoint(dir, {i * 100, "state " + std::to_string(i)});
  }
  EXPECT_EQ(checkpoint_files(dir),
            (std::vector<std::string>{"checkpoint-00000000000000004900.gvck",
                                      "checkpoint-00000000000000005000.gvck"}));
  // The newest torn: restore falls back to the one retention kept.
  const fs::path newest = dir / "checkpoint-00000000000000005000.gvck";
  fs::resize_file(newest, fs::file_size(newest) / 2);
  const auto ck = restore_latest(dir);
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->cursor, 4900u);
  EXPECT_EQ(ck->payload, "state 49");
}

TEST(Checkpoint, WriteRemovesStaleTmpAndKeepsWhatItWrote) {
  const fs::path dir = fresh_dir("ck_stale_tmp");
  write_checkpoint(dir, {300, "c"});
  write_checkpoint(dir, {400, "d"});
  {
    // A crash mid-write left this behind.
    std::ofstream out(dir / "checkpoint-00000000000000000350.gvck.tmp");
    out << "half";
  }
  // An older cursor than both kept files (a resume past a torn newest)
  // is still never deleted by its own write.
  write_checkpoint(dir, {100, "a"});
  EXPECT_EQ(checkpoint_files(dir),
            (std::vector<std::string>{"checkpoint-00000000000000000100.gvck",
                                      "checkpoint-00000000000000000300.gvck",
                                      "checkpoint-00000000000000000400.gvck"}));
  write_checkpoint(dir, {500, "e"});
  EXPECT_EQ(checkpoint_files(dir),
            (std::vector<std::string>{"checkpoint-00000000000000000400.gvck",
                                      "checkpoint-00000000000000000500.gvck"}));
}

TEST(Checkpoint, RestoreLatestThrowsWhenTheDirectoryCannotBeListed) {
  // A directory that exists but cannot be opened (EACCES, EIO; here no
  // descriptor is left) is an error, never a fresh start: resuming from
  // nothing would silently lose the checkpointed state.
  const fs::path dir = fresh_dir("ck_unlistable");
  write_checkpoint(dir, {100, "a"});
  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit none = old;
  none.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &none), 0);
  bool threw = false;
  try {
    (void)restore_latest(dir);
  } catch (const fs::filesystem_error&) {
    threw = true;
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old), 0);
  EXPECT_TRUE(threw);
  EXPECT_EQ(restore_latest(dir)->payload, "a");
}

TEST(Checkpoint, RestoreLatestEmptyOrMissingDirIsFreshStart) {
  EXPECT_FALSE(restore_latest(fresh_dir("ck_missing")).has_value());
  const fs::path dir = fresh_dir("ck_empty");
  fs::create_directories(dir);
  EXPECT_FALSE(restore_latest(dir).has_value());
}

TEST(Checkpoint, RestoreLatestAllCorruptThrows) {
  const fs::path dir = fresh_dir("ck_corrupt");
  const fs::path only = write_checkpoint(dir, {100, "x"});
  {
    std::ofstream out(only, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  try {
    (void)restore_latest(dir);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kCorrupt);
  }
}

TEST(Checkpoint, RestoreLatestRefusesNewerFormat) {
  const fs::path dir = fresh_dir("ck_version");
  write_checkpoint(dir, {100, "old"});
  // Hand-craft a well-formed file claiming a future format revision.
  SnapshotWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion + 1);
  w.u64(200);
  w.u64(1);
  std::string bytes = w.take();
  bytes += 'p';
  SnapshotWriter trailer;
  trailer.u32(crc32(bytes));
  bytes += trailer.bytes();
  {
    std::ofstream out(dir / "checkpoint-00000000000000000200.gvck",
                      std::ios::binary);
    out << bytes;
  }
  try {
    (void)restore_latest(dir);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kVersionMismatch);
  }
}

}  // namespace
}  // namespace geovalid::stream
