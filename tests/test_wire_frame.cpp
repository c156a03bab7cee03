// Binary frame codec robustness: round trips over randomized batches
// (the PR 3 fuzz discipline — 24 seeds, arbitrary chunking), every
// single-byte truncation, a full bit-flip sweep with the per-region
// rejection reasons, and the resync guarantees that keep one hostile
// frame from poisoning the next. The frame decoder fronts the serve and
// route ingest sockets, so every failure here is an engine-poisoning or
// crash vector in production.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "serve/wire.h"
#include "stats/rng.h"
#include "stream/event.h"
#include "stream/quarantine.h"
#include "stream/snapshot_io.h"

namespace {

using namespace geovalid;
using serve::BinaryFrameDecoder;
using serve::FrameError;
using serve::FrameErrorKind;

/// Random event with adversarial field values: extreme users and wifi
/// fingerprints, negative and non-monotonic timestamps, coordinates
/// including infinities and NaN — the codec must round-trip all of them
/// bit-exactly (validation is the engine's job, not the wire's).
stream::Event random_event(stats::Rng& rng) {
  const auto random_double = [&]() -> double {
    switch (rng.uniform_int(0, 9)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      case 2:
        return std::numeric_limits<double>::infinity();
      case 3:
        return std::numeric_limits<double>::quiet_NaN();
      default:
        return rng.uniform(-1e6, 1e6);
    }
  };
  const auto user = static_cast<trace::UserId>(
      rng.uniform_int(0, std::numeric_limits<std::uint32_t>::max()));
  const auto t = rng.uniform_int(-1'000'000'000, 1'000'000'000);
  if (rng.bernoulli(0.5)) {
    trace::GpsPoint p;
    p.t = t;
    p.position = {random_double(), random_double()};
    p.has_fix = rng.bernoulli(0.5);
    p.wifi_fingerprint = static_cast<std::uint32_t>(
        rng.uniform_int(0, std::numeric_limits<std::uint32_t>::max()));
    p.accel_variance = random_double();
    return stream::Event::gps_sample(user, p);
  }
  trace::Checkin c;
  c.t = t;
  c.poi = static_cast<trace::PoiId>(
      rng.uniform_int(0, std::numeric_limits<std::uint32_t>::max()));
  c.category = static_cast<trace::PoiCategory>(
      rng.uniform_int(0, trace::kPoiCategoryCount - 1));
  c.location = {random_double(), random_double()};
  return stream::Event::checkin_event(user, c);
}

/// Bit-pattern comparison: NaN-safe, -0.0-distinguishing.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_event_eq(const stream::Event& got, const stream::Event& want) {
  ASSERT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.user, want.user);
  if (want.kind == stream::Event::Kind::kGps) {
    EXPECT_EQ(got.gps.t, want.gps.t);
    EXPECT_TRUE(same_bits(got.gps.position.lat_deg,
                          want.gps.position.lat_deg));
    EXPECT_TRUE(same_bits(got.gps.position.lon_deg,
                          want.gps.position.lon_deg));
    EXPECT_EQ(got.gps.has_fix, want.gps.has_fix);
    EXPECT_EQ(got.gps.wifi_fingerprint, want.gps.wifi_fingerprint);
    EXPECT_TRUE(
        same_bits(got.gps.accel_variance, want.gps.accel_variance));
  } else {
    EXPECT_EQ(got.checkin.t, want.checkin.t);
    EXPECT_EQ(got.checkin.poi, want.checkin.poi);
    EXPECT_EQ(got.checkin.category, want.checkin.category);
    EXPECT_TRUE(same_bits(got.checkin.location.lat_deg,
                          want.checkin.location.lat_deg));
    EXPECT_TRUE(same_bits(got.checkin.location.lon_deg,
                          want.checkin.location.lon_deg));
  }
}

std::string encode_frame(const std::vector<stream::Event>& events) {
  std::string out;
  serve::append_binary_frame(out, events);
  return out;
}

/// Drains a decoder fed with `bytes` in chunks sized by `rng` (or byte
/// at a time when rng is null), returning every result incl. finish().
struct DrainResult {
  std::vector<std::vector<stream::Event>> frames;
  std::vector<FrameError> errors;
};

DrainResult drain(std::string_view bytes, stats::Rng* rng) {
  BinaryFrameDecoder d;
  DrainResult out;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t chunk =
        rng ? static_cast<std::size_t>(
                  rng->uniform_int(1, 4096))
            : 1;
    const std::size_t n = std::min(chunk, bytes.size() - off);
    d.feed(bytes.substr(off, n));
    off += n;
    while (auto result = d.next()) {
      if (auto* frame = std::get_if<BinaryFrameDecoder::Frame>(&*result)) {
        out.frames.push_back(std::move(frame->events));
      } else {
        out.errors.push_back(std::get<FrameError>(*result));
      }
    }
  }
  if (const auto tail = d.finish()) out.errors.push_back(*tail);
  return out;
}

TEST(WireFrame, RoundTripsRandomizedBatchesAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    stats::Rng rng(seed);
    // Several frames of varying size per seed, concatenated, then fed
    // back in random chunks — records, frame boundaries and read
    // boundaries all disagree.
    std::vector<std::vector<stream::Event>> batches;
    std::string wire;
    const int frames = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < frames; ++i) {
      std::vector<stream::Event> batch;
      const int n = static_cast<int>(rng.uniform_int(1, 700));
      batch.reserve(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) batch.push_back(random_event(rng));
      serve::append_binary_frame(wire, batch);
      batches.push_back(std::move(batch));
    }
    const DrainResult out = drain(wire, &rng);
    EXPECT_TRUE(out.errors.empty()) << "seed " << seed;
    ASSERT_EQ(out.frames.size(), batches.size()) << "seed " << seed;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      ASSERT_EQ(out.frames[i].size(), batches[i].size())
          << "seed " << seed << " frame " << i;
      for (std::size_t j = 0; j < batches[i].size(); ++j) {
        expect_event_eq(out.frames[i][j], batches[i][j]);
      }
    }
  }
}

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto b = static_cast<unsigned char>(ch);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// Round trips cannot catch an encoder and a decoder that drift together,
// so these bytes pin the format itself: every encoder and CRC loop must
// reproduce them exactly.
TEST(WireFrame, GoldenBytesPinTheFrameLayout) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto gps = [](trace::UserId user, std::int64_t t, double lat,
                      double lon, bool fix, std::uint32_t wifi,
                      double accel) {
    trace::GpsPoint p;
    p.t = t;
    p.position = {lat, lon};
    p.has_fix = fix;
    p.wifi_fingerprint = wifi;
    p.accel_variance = accel;
    return stream::Event::gps_sample(user, p);
  };
  const auto checkin = [](trace::UserId user, std::int64_t t,
                          trace::PoiId poi, trace::PoiCategory category,
                          double lat, double lon) {
    trace::Checkin c;
    c.t = t;
    c.poi = poi;
    c.category = category;
    c.location = {lat, lon};
    return stream::Event::checkin_event(user, c);
  };
  const std::vector<stream::Event> batch{
      gps(7, 1000, 34.42, -119.7, true, 300, 0.25),
      checkin(0xFFFFFFFFu, 1060, 12345, trace::PoiCategory::kNightlife,
              kNaN, -0.0),
      gps(7, 940, kInf, -kInf, false, 0, -0.0),
      gps(1u << 28, 2000, -33.9, 151.2, true, 0xFFFFFFFFu, kNaN),
      checkin(1, -5, 0, trace::PoiCategory::kCollege, 0.0, kInf),
      gps(3, -5, 1e-300, -1e300, false, 1, 1.5),
  };
  const std::string wire = encode_frame(batch);
  EXPECT_EQ(to_hex(wire),
            // magic, version, flags, count 6, payload_len 168
            "b1475646" "01" "00" "06000000" "a8000000"
            // kinds: records 1 and 4 are checkins
            "12"
            // users: 7, 2^32-1 and 2^28 (5-byte varints), 7, 1, 3
            "07" "ffffffff0f" "07" "8080808001" "01" "03"
            // zigzag t deltas: +1000, +60, -120, +1060, -2005, 0
            "d00f" "78" "ef01" "c810" "a91f" "00"
            // gps lat, lon
            "f6285c8fc2354140" "000000000000f07f" "3333333333f340c0"
            "59f3f8c21f6ea501"
            "cdccccccccec5dc0" "000000000000f0ff" "6666666666e66240"
            "9c7500883ce437fe"
            // has_fix 1,0,1,0; wifi 300, 0, 2^32-1, 1
            "05" "ac02" "00" "ffffffff0f" "01"
            // accel 0.25, -0.0, NaN, 1.5
            "000000000000d03f" "0000000000000080" "000000000000f87f"
            "000000000000f83f"
            // checkin poi 12345, 0; categories 2, 8
            "b960" "00" "02" "08"
            // checkin lat NaN, 0.0; lon -0.0, inf
            "000000000000f87f" "0000000000000000" "0000000000000080"
            "000000000000f07f"
            // CRC32 over version..payload
            "b5272395");
  const DrainResult out = drain(wire, nullptr);
  EXPECT_TRUE(out.errors.empty());
  ASSERT_EQ(out.frames.size(), 1u);
  ASSERT_EQ(out.frames[0].size(), batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    expect_event_eq(out.frames[0][j], batch[j]);
  }
}

// The extremes of every column: u32-max ids, wifi and poi (5-byte
// varints), time jumps between INT64_MIN and INT64_MAX (10-byte zigzag
// deltas that wrap), and NaN, infinite and negative-zero doubles. Pinned
// like the layout above, so a faster column loop cannot change a byte.
TEST(WireFrame, GoldenBytesPinTheColumnExtremes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::uint32_t kU32 = std::numeric_limits<std::uint32_t>::max();
  const auto gps = [](trace::UserId user, std::int64_t t, double lat,
                      double lon, std::uint32_t wifi, double accel) {
    trace::GpsPoint p;
    p.t = t;
    p.position = {lat, lon};
    p.has_fix = (user & 1) != 0;
    p.wifi_fingerprint = wifi;
    p.accel_variance = accel;
    return stream::Event::gps_sample(user, p);
  };
  const auto checkin = [](trace::UserId user, std::int64_t t,
                          trace::PoiId poi, double lat, double lon) {
    trace::Checkin c;
    c.t = t;
    c.poi = poi;
    c.category = trace::PoiCategory::kTravel;
    c.location = {lat, lon};
    return stream::Event::checkin_event(user, c);
  };
  const std::vector<stream::Event> batch{
      gps(kU32, kMax, kNaN, -0.0, kU32, kInf),
      checkin(0, kMin, kU32, -kInf, kInf),
      gps(1, 0, -kInf, kNaN, 0, -0.0),
      checkin(kU32, kMin, 0, -0.0, kNaN),
      gps(128, kMax, 34.42, -119.7, 127, 1e-300),
      gps(16383, kMin + 1, kInf, -kInf, 128, -kNaN),
      checkin(16384, -1, 16383, 0.0, -0.0),
      gps(2, 1, 5e-324, -5e-324, kU32 - 1, 1.0),
  };
  const std::string wire = encode_frame(batch);
  EXPECT_EQ(to_hex(wire),
            // magic, version, flags, count 8, payload_len 259
            "b1475646" "01" "00" "08000000" "03010000"
            // kinds: records 1, 3 and 6 are checkins
            "4a"
            // users: 2^32-1, 0, 1, 2^32-1, 128, 16383, 16384, 2
            "ffffffff0f" "00" "01" "ffffffff0f" "8001" "ff7f" "808001" "02"
            // zigzag t deltas, mod 2^64: INT64_MAX, +1, INT64_MIN,
            // INT64_MIN, -1, +2, INT64_MAX - 1, +2
            "feffffffffffffffff01" "02" "ffffffffffffffffff01"
            "ffffffffffffffffff01" "01" "04" "fcffffffffffffffff01" "04"
            // gps lat: NaN, -inf, 34.42, inf, 5e-324
            "000000000000f87f" "000000000000f0ff" "f6285c8fc2354140"
            "000000000000f07f" "0100000000000000"
            // gps lon: -0.0, NaN, -119.7, -inf, -5e-324
            "0000000000000080" "000000000000f87f" "cdccccccccec5dc0"
            "000000000000f0ff" "0100000000000080"
            // has_fix 1,1,0,1,0; wifi 2^32-1, 0, 127, 128, 2^32-2
            "0b" "ffffffff0f" "00" "7f" "8001" "feffffff0f"
            // accel inf, -0.0, 1e-300, -NaN, 1.0
            "000000000000f07f" "0000000000000080" "59f3f8c21f6ea501"
            "000000000000f8ff" "000000000000f03f"
            // checkin poi 2^32-1, 0, 16383; categories 5, 5, 5
            "ffffffff0f" "00" "ff7f" "050505"
            // checkin lat -inf, -0.0, 0.0; lon inf, NaN, -0.0
            "000000000000f0ff" "0000000000000080" "0000000000000000"
            "000000000000f07f" "000000000000f87f" "0000000000000080"
            // CRC32 over version..payload
            "c2019416");
  const DrainResult out = drain(wire, nullptr);
  EXPECT_TRUE(out.errors.empty());
  ASSERT_EQ(out.frames.size(), 1u);
  ASSERT_EQ(out.frames[0].size(), batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    expect_event_eq(out.frames[0][j], batch[j]);
  }
}

// Frames of every size class, from one record to the most a frame may
// carry, come back bit-exact.
TEST(WireFrame, RoundTripsOneToTheMostRecordsAFrameMayCarry) {
  stats::Rng rng(61);
  std::vector<std::size_t> sizes{1, 2, 7, 8, 9, serve::kMaxFrameRecords};
  for (int i = 0; i < 12; ++i) {
    // Log-uniform over [1, kMaxFrameRecords].
    sizes.push_back(static_cast<std::size_t>(
        std::exp2(rng.uniform(0.0, std::log2(serve::kMaxFrameRecords)))));
  }
  for (const std::size_t n : sizes) {
    std::vector<stream::Event> batch;
    batch.reserve(n);
    for (std::size_t j = 0; j < n; ++j) batch.push_back(random_event(rng));
    const DrainResult out = drain(encode_frame(batch), &rng);
    ASSERT_TRUE(out.errors.empty()) << n << " records";
    ASSERT_EQ(out.frames.size(), 1u) << n << " records";
    ASSERT_EQ(out.frames[0].size(), n);
    for (std::size_t j = 0; j < n; ++j) {
      expect_event_eq(out.frames[0][j], batch[j]);
      if (HasFailure()) FAIL() << n << " records, record " << j;
    }
  }
}

TEST(WireFrame, ByteAtATimeFeedDecodesEveryFrame) {
  stats::Rng rng(99);
  std::string wire;
  std::vector<stream::Event> all;
  for (int i = 0; i < 3; ++i) {
    std::vector<stream::Event> batch;
    for (int j = 0; j < 40; ++j) batch.push_back(random_event(rng));
    serve::append_binary_frame(wire, batch);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  const DrainResult out = drain(wire, nullptr);
  EXPECT_TRUE(out.errors.empty());
  std::size_t total = 0;
  for (const auto& f : out.frames) total += f.size();
  EXPECT_EQ(total, all.size());
}

TEST(WireFrame, EverySingleByteTruncationReportsTruncated) {
  stats::Rng rng(7);
  std::vector<stream::Event> batch;
  for (int j = 0; j < 8; ++j) batch.push_back(random_event(rng));
  const std::string wire = encode_frame(batch);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    BinaryFrameDecoder d;
    d.feed(std::string_view(wire).substr(0, len));
    // No prefix shorter than the whole frame may yield a frame — and a
    // valid-prefix stream must never surface a non-truncation error.
    while (const auto result = d.next()) {
      ADD_FAILURE() << "result produced at truncation length " << len;
    }
    const auto tail = d.finish();
    if (len == 0) {
      EXPECT_FALSE(tail.has_value());
    } else {
      ASSERT_TRUE(tail.has_value()) << "length " << len;
      EXPECT_EQ(tail->kind, FrameErrorKind::kTruncated) << "length " << len;
    }
  }
}

TEST(WireFrame, BitFlipSweepNeverYieldsAFrame) {
  stats::Rng rng(13);
  std::vector<stream::Event> batch;
  for (int j = 0; j < 16; ++j) batch.push_back(random_event(rng));
  const std::string wire = encode_frame(batch);
  const std::size_t header = 14;
  const std::size_t trailer_at = wire.size() - 4;
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = wire;
      corrupted[byte] = static_cast<char>(
          static_cast<unsigned char>(corrupted[byte]) ^ (1u << bit));
      const DrainResult out = drain(corrupted, nullptr);
      ASSERT_TRUE(out.frames.empty())
          << "frame decoded with bit " << bit << " of byte " << byte
          << " flipped";
      ASSERT_FALSE(out.errors.empty())
          << "no error with bit " << bit << " of byte " << byte
          << " flipped";
      // Region-deterministic reasons. Header-integer flips can land
      // anywhere (bad_header, truncated, crc_mismatch, bad_magic after
      // a resync) so only the unambiguous regions pin the exact kind.
      const FrameErrorKind first = out.errors.front().kind;
      if (byte < 4) {
        EXPECT_EQ(first, FrameErrorKind::kBadMagic)
            << "magic byte " << byte;
      } else if (byte == 4) {
        EXPECT_EQ(first, FrameErrorKind::kBadVersion);
      } else if (byte == 5) {
        EXPECT_EQ(first, FrameErrorKind::kBadHeader);
      } else if (byte >= header && byte < trailer_at) {
        EXPECT_EQ(first, FrameErrorKind::kCrcMismatch)
            << "payload byte " << byte;
      } else if (byte >= trailer_at) {
        EXPECT_EQ(first, FrameErrorKind::kCrcMismatch)
            << "trailer byte " << byte;
      }
    }
  }
}

TEST(WireFrame, ResynchronizesPastGarbageToNextFrame) {
  stats::Rng rng(21);
  std::vector<stream::Event> batch;
  for (int j = 0; j < 5; ++j) batch.push_back(random_event(rng));
  const std::string frame = encode_frame(batch);
  const std::string garbage = "gps,1,2,3.0";  // a text client gone wrong
  const DrainResult out = drain(garbage + frame, nullptr);
  ASSERT_EQ(out.frames.size(), 1u);
  EXPECT_EQ(out.frames[0].size(), batch.size());
  ASSERT_FALSE(out.errors.empty());
  EXPECT_EQ(out.errors.front().kind, FrameErrorKind::kBadMagic);
}

TEST(WireFrame, CrcMismatchConsumesExactlyOneFrame) {
  stats::Rng rng(22);
  std::vector<stream::Event> first;
  std::vector<stream::Event> second;
  for (int j = 0; j < 6; ++j) first.push_back(random_event(rng));
  for (int j = 0; j < 9; ++j) second.push_back(random_event(rng));
  std::string wire = encode_frame(first);
  wire[20] = static_cast<char>(static_cast<unsigned char>(wire[20]) ^ 0x40);
  wire += encode_frame(second);
  const DrainResult out = drain(wire, nullptr);
  // The corrupted frame's header length is trusted (CRC ran over the
  // full buffered frame), so exactly its bytes are consumed and the
  // following frame survives untouched.
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors.front().kind, FrameErrorKind::kCrcMismatch);
  ASSERT_EQ(out.frames.size(), 1u);
  ASSERT_EQ(out.frames[0].size(), second.size());
  for (std::size_t j = 0; j < second.size(); ++j) {
    expect_event_eq(out.frames[0][j], second[j]);
  }
}

/// Builds a header-only frame claiming `count` records and `payload_len`
/// payload bytes, with a valid CRC over whatever payload is supplied.
std::string forged_frame(std::uint32_t count, std::uint32_t payload_len,
                         const std::string& payload) {
  std::string out;
  for (const unsigned char b : serve::kFrameMagic) {
    out.push_back(static_cast<char>(b));
  }
  out.push_back(static_cast<char>(serve::kFrameVersion));
  out.push_back('\0');  // flags
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((count >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((payload_len >> (8 * i)) & 0xFF));
  }
  out += payload;
  const std::uint32_t crc = stream::crc32(
      std::string_view(out).substr(4));
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  return out;
}

TEST(WireFrame, RejectsCountAndPayloadOverflowWithoutBuffering) {
  // count over the cap: rejected from the header alone (bad_header),
  // even though no payload was ever sent.
  {
    BinaryFrameDecoder d;
    std::string frame = forged_frame(
        static_cast<std::uint32_t>(serve::kMaxFrameRecords + 1), 32,
        std::string(32, 'x'));
    d.feed(std::string_view(frame).substr(0, 14));
    const auto result = d.next();
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(std::holds_alternative<FrameError>(*result));
    EXPECT_EQ(std::get<FrameError>(*result).kind,
              FrameErrorKind::kBadHeader);
  }
  // zero count: a frame that cannot carry records is hostile padding.
  {
    BinaryFrameDecoder d;
    const std::string frame = forged_frame(0, 4, "abcd");
    d.feed(frame);
    const auto result = d.next();
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(std::holds_alternative<FrameError>(*result));
    EXPECT_EQ(std::get<FrameError>(*result).kind,
              FrameErrorKind::kBadHeader);
  }
  // payload_len over the cap: same header-only rejection — the decoder
  // must never allocate or wait for a 4 GiB payload.
  {
    BinaryFrameDecoder d;
    const std::string frame = forged_frame(
        1, static_cast<std::uint32_t>(serve::kMaxFramePayloadBytes + 1),
        "");
    d.feed(std::string_view(frame).substr(0, 14));
    const auto result = d.next();
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(std::holds_alternative<FrameError>(*result));
    EXPECT_EQ(std::get<FrameError>(*result).kind,
              FrameErrorKind::kBadHeader);
  }
}

TEST(WireFrame, RejectsStructurallyInvalidPayloads) {
  // A CRC-valid frame whose payload is garbage for its claimed count:
  // the columnar reader runs dry -> bad_payload, not a crash.
  {
    BinaryFrameDecoder d;
    d.feed(forged_frame(3, 4, "abcd"));
    const auto result = d.next();
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(std::holds_alternative<FrameError>(*result));
    EXPECT_EQ(std::get<FrameError>(*result).kind,
              FrameErrorKind::kBadPayload);
  }
  // Trailing payload bytes beyond the last column: also bad_payload —
  // a forged length field must not smuggle bytes past the decoder.
  {
    stats::Rng rng(17);
    std::vector<stream::Event> batch;
    batch.push_back(random_event(rng));
    const std::string good = encode_frame(batch);
    // Re-forge with one extra payload byte and a recomputed CRC.
    const std::string payload =
        good.substr(14, good.size() - 18) + std::string(1, '\0');
    const std::string frame = forged_frame(
        1, static_cast<std::uint32_t>(payload.size()), payload);
    BinaryFrameDecoder d;
    d.feed(frame);
    const auto result = d.next();
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(std::holds_alternative<FrameError>(*result));
    EXPECT_EQ(std::get<FrameError>(*result).kind,
              FrameErrorKind::kBadPayload);
  }
  // An out-of-range checkin category inside a CRC-valid frame.
  {
    stats::Rng rng(18);
    trace::Checkin c;
    c.t = 100;
    c.poi = 5;
    c.category = trace::PoiCategory::kNightlife;
    c.location = {1.0, 2.0};
    std::vector<stream::Event> batch{stream::Event::checkin_event(9, c)};
    const std::string good = encode_frame(batch);
    std::string payload = good.substr(14, good.size() - 18);
    // Category is the lone u8 column after kinds/user/t/poi varints; for
    // a one-checkin frame it is the byte before the two f64 coords.
    payload[payload.size() - 17] = static_cast<char>(250);
    const std::string frame = forged_frame(
        1, static_cast<std::uint32_t>(payload.size()), payload);
    BinaryFrameDecoder d;
    d.feed(frame);
    const auto result = d.next();
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(std::holds_alternative<FrameError>(*result));
    EXPECT_EQ(std::get<FrameError>(*result).kind,
              FrameErrorKind::kBadPayload);
  }
}

/// What a decoder makes of a forged frame of `count` records over
/// `payload`, with a valid CRC: nullopt when it decodes, else the kind of
/// the rejection.
std::optional<FrameErrorKind> forged_result(std::uint32_t count,
                                            const std::string& payload) {
  BinaryFrameDecoder d;
  d.feed(forged_frame(count, static_cast<std::uint32_t>(payload.size()),
                      payload));
  const auto result = d.next();
  EXPECT_TRUE(result.has_value());
  if (!result || !std::holds_alternative<FrameError>(*result)) {
    return std::nullopt;
  }
  return std::get<FrameError>(*result).kind;
}

// A varint takes at most 10 bytes, so a reader may skip its per-byte
// bounds check while 10 payload bytes remain, but not in the payload's
// last 10: each rejection is tried on both sides of that line. Every
// payload is long enough to pass the up-front count bound.
TEST(WireFrame, RejectsHostileVarintsOnBothSidesOfTheLastTenBytes) {
  const std::string f64(8, '\0');
  const std::string ff9(9, '\xff');
  // One GPS record: kinds, user 1, t delta 0, lat, lon and has_fix, then
  // `wifi` as its wifi varint's bytes and `tail` for its accel.
  const auto gps = [&f64](const std::string& wifi, const std::string& tail) {
    return std::string("\x00\x01\x00", 3) + f64 + f64 + "\x01" + wifi +
           tail;
  };
  // Controls that decode: a u32-max wifi, and a canonical 10-byte time
  // delta (zigzag 2^64 - 1).
  EXPECT_EQ(forged_result(1, gps("\xff\xff\xff\xff\x0f", f64)),
            std::nullopt);
  EXPECT_EQ(forged_result(1, std::string("\x00\x01", 2) + ff9 + "\x01" +
                                 f64 + f64 + std::string("\x01\x00", 2) + f64),
            std::nullopt);
  const auto bad = std::optional(FrameErrorKind::kBadPayload);
  // The last varint, read in the final 10 bytes, with its accel one
  // byte short.
  EXPECT_EQ(forged_result(1, gps("\x05", std::string(7, '\0'))), bad);
  // Varints that end the payload: unterminated from 9 bytes and from 4
  // bytes before the end, and 10 bytes from the end, both unterminated
  // and with a 10th byte > 1.
  EXPECT_EQ(forged_result(1, gps(std::string(9, '\x80'), "")), bad);
  EXPECT_EQ(forged_result(1, gps(std::string(4, '\x80'), "")), bad);
  EXPECT_EQ(forged_result(1, gps(std::string(10, '\xff'), "")), bad);
  EXPECT_EQ(forged_result(1, gps(ff9 + "\x02", "")), bad);
  // Mid-payload: a time delta whose 10th byte is 2 (the frame is
  // otherwise well-formed, so this is its only fault), a user varint with
  // no terminator in its first 10 bytes, and a wifi varint past u32.
  EXPECT_EQ(forged_result(1, std::string("\x00\x01", 2) + ff9 + "\x02" +
                                 f64 + f64 + std::string("\x01\x00", 2) + f64),
            bad);
  EXPECT_EQ(forged_result(1, std::string("\x00", 1) +
                                 std::string(11, '\xff') + "\x00" + f64 +
                                 f64 + std::string("\x01\x00", 2) + f64),
            bad);
  EXPECT_EQ(forged_result(1, gps("\xff\xff\xff\xff\x1f", f64)), bad);
  EXPECT_EQ(forged_result(1, gps(ff9 + "\x02", f64)), bad);
}

// A CRC-valid frame whose payload_len is one byte short of or past its
// columns is refused, for frames whose columns end in either kind.
TEST(WireFrame, RejectsAPayloadOneByteShortOrLong) {
  stats::Rng rng(71);
  for (int frame = 0; frame < 8; ++frame) {
    std::vector<stream::Event> batch;
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    for (int j = 0; j < n; ++j) batch.push_back(random_event(rng));
    const std::string good = encode_frame(batch);
    const std::string payload = good.substr(14, good.size() - 18);
    const auto count = static_cast<std::uint32_t>(batch.size());
    ASSERT_EQ(forged_result(count, payload), std::nullopt);
    EXPECT_EQ(forged_result(count, payload.substr(0, payload.size() - 1)),
              FrameErrorKind::kBadPayload);
    EXPECT_EQ(forged_result(count, payload + std::string(1, '\x00')),
              FrameErrorKind::kBadPayload);
  }
}

TEST(WireFrame, CountThePayloadCannotHoldIsRejectedUpFront) {
  // 22 bytes claiming the most records a frame may carry over a 4-byte
  // payload: CRC-valid, so only the count bound can refuse it cheaply.
  const std::string hostile = forged_frame(
      static_cast<std::uint32_t>(serve::kMaxFrameRecords), 4, "abcd");
  ASSERT_EQ(hostile.size(), 22u);
  stats::Rng rng(23);
  std::vector<stream::Event> batch;
  for (int j = 0; j < 5; ++j) batch.push_back(random_event(rng));
  const DrainResult out = drain(hostile + encode_frame(batch), nullptr);
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors.front().kind, FrameErrorKind::kBadPayload);
  ASSERT_EQ(out.frames.size(), 1u);
  ASSERT_EQ(out.frames[0].size(), batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    expect_event_eq(out.frames[0][j], batch[j]);
  }
}

TEST(WireFrame, SmallestLegalRecordsStillDecode) {
  // Checkins whose user, time delta and poi varints are one byte each:
  // 20 payload bytes a record plus its kind bit, the least a record can
  // take, so a frame of them sits exactly on the count bound.
  std::vector<stream::Event> batch;
  for (std::uint32_t j = 0; j < 512; ++j) {
    trace::Checkin c;
    c.t = j / 16;
    c.poi = j % 128;
    c.category = static_cast<trace::PoiCategory>(j % trace::kPoiCategoryCount);
    c.location = {34.0 + j * 1e-4, -119.0 - j * 1e-4};
    batch.push_back(stream::Event::checkin_event(j % 100, c));
  }
  const std::string wire = encode_frame(batch);
  ASSERT_EQ(wire.size(), 14 + 512 / 8 + 20 * 512 + 4);
  const DrainResult out = drain(wire, nullptr);
  EXPECT_TRUE(out.errors.empty());
  ASSERT_EQ(out.frames.size(), 1u);
  ASSERT_EQ(out.frames[0].size(), batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    expect_event_eq(out.frames[0][j], batch[j]);
  }
}

TEST(WireFrame, ErrorDetailIsHexPrefixedAndPrintable) {
  stats::Rng rng(51);
  std::vector<stream::Event> batch;
  for (int j = 0; j < 4; ++j) batch.push_back(random_event(rng));
  const std::string wire = encode_frame(batch);
  BinaryFrameDecoder d;
  d.feed(std::string_view(wire).substr(0, 20));  // mid-payload EOF
  EXPECT_FALSE(d.next().has_value());
  const auto tail = d.finish();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->kind, FrameErrorKind::kTruncated);
  EXPECT_NE(tail->detail.find("bytes="), std::string::npos);
  EXPECT_NE(tail->detail.find("hex="), std::string::npos);
  for (const char ch : tail->detail) {
    EXPECT_TRUE(ch >= 0x20 && ch < 0x7F)
        << "unprintable byte in detail: " << static_cast<int>(ch);
  }
}

TEST(WireFrame, FinishIsCleanAfterCompleteFrames) {
  stats::Rng rng(31);
  std::vector<stream::Event> batch;
  for (int j = 0; j < 3; ++j) batch.push_back(random_event(rng));
  BinaryFrameDecoder d;
  d.feed(encode_frame(batch));
  ASSERT_TRUE(d.next().has_value());
  EXPECT_FALSE(d.next().has_value());
  EXPECT_FALSE(d.finish().has_value());
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(WireFrame, EncoderIgnoresEmptyAndOversizedBatches) {
  std::string out;
  serve::append_binary_frame(out, std::vector<stream::Event>{});
  EXPECT_TRUE(out.empty());
  stats::Rng rng(41);
  std::vector<stream::Event> huge;
  huge.reserve(serve::kMaxFrameRecords + 1);
  for (std::size_t j = 0; j <= serve::kMaxFrameRecords; ++j) {
    huge.push_back(random_event(rng));
  }
  serve::append_binary_frame(out, huge);
  EXPECT_TRUE(out.empty());  // callers must split; no partial emit
}

TEST(WireFrame, MalformedFrameQuarantineReasonIsWired) {
  // The dead-letter vocabulary grew by exactly one name for frames.
  EXPECT_EQ(stream::to_string(stream::QuarantineReason::kMalformedFrame),
            "malformed_frame");
  EXPECT_EQ(stream::kQuarantineReasonCount, 7u);
  // And the frame error names match the metric label vocabulary.
  EXPECT_EQ(serve::to_string(FrameErrorKind::kBadMagic), "bad_magic");
  EXPECT_EQ(serve::to_string(FrameErrorKind::kBadVersion), "bad_version");
  EXPECT_EQ(serve::to_string(FrameErrorKind::kBadHeader), "bad_header");
  EXPECT_EQ(serve::to_string(FrameErrorKind::kCrcMismatch),
            "crc_mismatch");
  EXPECT_EQ(serve::to_string(FrameErrorKind::kBadPayload), "bad_payload");
  EXPECT_EQ(serve::to_string(FrameErrorKind::kTruncated), "truncated");
}

}  // namespace
