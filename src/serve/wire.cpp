#include "serve/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "stream/snapshot_io.h"
#include "trace/fields.h"
#include "trace/poi.h"

namespace geovalid::serve {
WireResult parse_wire_record(std::string_view line) {
  trace::Fields f;
  const std::size_t n = trace::split_fields(line, ',', f);
  trace::UserId user = 0;
  if (f[0] == "gps") {
    if (n != 1 + trace::kGpsFields) {
      return WireError{"gps record expects 8 fields"};
    }
    trace::GpsPoint p;
    if (const char* bad = trace::parse_gps_fields(
            std::span(f).subspan<1, trace::kGpsFields>(), user, p)) {
      return WireError{bad};
    }
    return stream::Event::gps_sample(user, p);
  }
  if (f[0] == "checkin") {
    if (n != 1 + trace::kCheckinFields) {
      return WireError{"checkin record expects 7 fields"};
    }
    trace::Checkin c;
    if (const char* bad = trace::parse_checkin_fields(
            std::span(f).subspan<1, trace::kCheckinFields>(), user, c)) {
      return WireError{bad};
    }
    return stream::Event::checkin_event(user, c);
  }
  return WireError{f[0].empty() ? "empty record" : "unknown record kind"};
}

void append_wire_record(std::string& out, const stream::Event& e) {
  if (e.kind == stream::Event::Kind::kGps) {
    out += "gps,";
    append_number(out, e.user);
    out += ',';
    append_number(out, e.gps.t);
    out += ',';
    append_number(out, e.gps.position.lat_deg);
    out += ',';
    append_number(out, e.gps.position.lon_deg);
    out += ',';
    out += e.gps.has_fix ? '1' : '0';
    out += ',';
    append_number(out, e.gps.wifi_fingerprint);
    out += ',';
    append_number(out, e.gps.accel_variance);
  } else {
    out += "checkin,";
    append_number(out, e.user);
    out += ',';
    append_number(out, e.checkin.t);
    out += ',';
    append_number(out, e.checkin.poi);
    out += ',';
    out += trace::to_string(e.checkin.category);
    out += ',';
    append_number(out, e.checkin.location.lat_deg);
    out += ',';
    append_number(out, e.checkin.location.lon_deg);
  }
  out += '\n';
}

std::string format_wire_record(const stream::Event& e) {
  std::string out;
  append_wire_record(out, e);
  return out;
}

void LineDecoder::feed(std::string_view data) {
  // Compact the consumed prefix before growing: the buffer then stays
  // bounded by one partial line plus one recv chunk.
  if (pos_ > 0 && pos_ >= 4096) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data);
}

std::optional<LineDecoder::Line> LineDecoder::next() {
  while (true) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (discarding_) {
      if (nl == std::string::npos) {
        // Still inside the oversized line: drop what we have.
        buf_.clear();
        pos_ = 0;
        return std::nullopt;
      }
      pos_ = nl + 1;
      discarding_ = false;
      continue;
    }
    if (nl == std::string::npos) {
      if (buffered() > max_line_bytes_) {
        // Cap blown with no terminator in sight: surface the prefix once,
        // then discard until the line finally ends.
        const Line line{
            std::string_view(buf_).substr(pos_, max_line_bytes_), true};
        pos_ = buf_.size();
        discarding_ = true;
        return line;
      }
      return std::nullopt;
    }
    std::string_view text = std::string_view(buf_).substr(pos_, nl - pos_);
    if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
    pos_ = nl + 1;
    if (text.size() > max_line_bytes_) {
      return Line{text.substr(0, max_line_bytes_), true};
    }
    return Line{text, false};
  }
}

std::optional<LineDecoder::Line> LineDecoder::finish() {
  std::optional<Line> out;
  if (!discarding_ && buffered() > 0) {
    // An unterminated trailing fragment: the peer disconnected mid-record.
    // Reported as truncated — it is not a complete line.
    std::string_view text = std::string_view(buf_).substr(pos_);
    out = Line{text.substr(0, max_line_bytes_), true};
  }
  pos_ = 0;
  discarding_ = false;
  // Note: buf_ must stay alive for the returned view; only the cursor
  // resets here. The next feed() starts clean.
  if (!out) buf_.clear();
  return out;
}

// ---------------------------------------------------------------------------
// Binary frames. Byte layout (docs/SERVICE.md is the normative copy):
//
//   offset  size          field
//   0       4             magic 0xB1 'G' 'V' 'F'
//   4       1             version (= 1)
//   5       1             flags (= 0, reserved)
//   6       4             record count, u32 LE, 1..kMaxFrameRecords
//   10      4             payload length, u32 LE, <= kMaxFramePayloadBytes
//   14      payload_len   columnar payload (below)
//   ...     4             CRC32 (IEEE 802.3, snapshot_io's crc32) over
//                         bytes [4, 14 + payload_len) — everything after
//                         the magic, trailer excluded
//
// Payload columns, in order (N = record count, G = gps records, C =
// checkin records, both in wire order):
//
//   kinds      ceil(N/8) bytes, LSB-first; bit set = checkin
//   user       N x varint
//   t          N x zigzag varint, delta vs. the previous record's t
//   gps.lat    G x f64 (bit-cast u64 LE — bit-exact, like snapshot_io)
//   gps.lon    G x f64
//   gps.has_fix   ceil(G/8) bytes, LSB-first
//   gps.wifi   G x varint
//   gps.accel  G x f64
//   ck.poi     C x varint
//   ck.category   C x u8 (< kPoiCategoryCount)
//   ck.lat     C x f64
//   ck.lon     C x f64
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kFrameHeaderBytes = 14;
constexpr std::size_t kFrameTrailerBytes = 4;

/// Hex prefix length of a rejected frame's dead-letter detail.
constexpr std::size_t kHexDetailBytes = 32;

/// Most bytes one record can add to a frame: a 5-byte user varint, a
/// 10-byte time delta varint and a GPS sample's columns (two f64s, a
/// 5-byte wifi varint, an f64), plus a byte each for its kind and has_fix
/// bits, which overcounts the two bitmaps.
constexpr std::size_t kMaxRecordBytes = 46;

/// Fewest payload bytes one record takes besides its kind bit: a checkin
/// with one-byte user, time and poi varints, its category and two f64s.
constexpr std::size_t kMinRecordBytes = 20;

/// Unchecked write cursor into a frame the encoder sized to its upper bound
/// up front, so no column write checks or grows the buffer.
struct FrameWriter {
  unsigned char* p;

  void u8(std::uint64_t v) { *p++ = static_cast<unsigned char>(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8((v >> (8 * i)) & 0xFF);
  }

  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(v | 0x80);
      v >>= 7;
    }
    u8(v);
  }

  void zigzag(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }

  void f64(double v) {
    const std::uint64_t bits =
        stream::little_endian(std::bit_cast<std::uint64_t>(v));
    std::memcpy(p, &bits, sizeof(bits));
    p += sizeof(bits);
  }
};

std::uint32_t read_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Bounds-checked cursor over a frame payload. Every read either succeeds
/// or flips `ok` — the decode loop checks once at the end, so a short or
/// overlong payload surfaces as one `bad_payload` rejection, never a read
/// past the buffer.
struct PayloadReader {
  const unsigned char* p;
  std::size_t n;
  std::size_t off = 0;
  bool ok = true;

  bool need(std::size_t k) {
    if (n - off < k) {
      ok = false;
      return false;
    }
    return true;
  }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return p[off++];
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!need(1)) return 0;
      const std::uint8_t byte = p[off++];
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical 10th bytes that would shift bits past 63.
        if (shift == 63 && byte > 1) ok = false;
        return v;
      }
    }
    ok = false;  // unterminated varint
    return 0;
  }

  std::int64_t zigzag() {
    const std::uint64_t v = varint();
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

  double f64() {
    if (!need(8)) return 0.0;
    std::uint64_t bits;
    std::memcpy(&bits, p + off, sizeof(bits));
    off += sizeof(bits);
    return std::bit_cast<double>(stream::little_endian(bits));
  }
};

std::string hex_prefix(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const std::size_t n = std::min(bytes.size(), kHexDetailBytes);
  std::string out;
  out.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = static_cast<unsigned char>(bytes[i]);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string frame_detail(FrameErrorKind kind, std::string_view bytes) {
  std::string detail(to_string(kind));
  detail += " bytes=";
  char buf[24];
  const auto [p, ec] =
      std::to_chars(buf, buf + sizeof(buf), bytes.size());
  detail.append(buf, static_cast<std::size_t>(p - buf));
  detail += " hex=";
  detail += hex_prefix(bytes);
  return detail;
}

}  // namespace

std::string_view to_string(FrameErrorKind kind) {
  switch (kind) {
    case FrameErrorKind::kBadMagic:
      return "bad_magic";
    case FrameErrorKind::kBadVersion:
      return "bad_version";
    case FrameErrorKind::kBadHeader:
      return "bad_header";
    case FrameErrorKind::kCrcMismatch:
      return "crc_mismatch";
    case FrameErrorKind::kBadPayload:
      return "bad_payload";
    case FrameErrorKind::kTruncated:
      return "truncated";
  }
  return "unknown";
}

void append_binary_frame(std::string& out,
                         std::span<const stream::Event> events) {
  if (events.empty() || events.size() > kMaxFrameRecords) return;

  const std::size_t header_at = out.size();
  out.resize(header_at + kFrameHeaderBytes + kMaxRecordBytes * events.size() +
             kFrameTrailerBytes);
  auto* const frame = reinterpret_cast<unsigned char*>(out.data()) + header_at;
  FrameWriter w{frame};
  for (const unsigned char b : kFrameMagic) w.u8(b);
  w.u8(kFrameVersion);
  w.u8(0);  // flags
  w.u32(static_cast<std::uint32_t>(events.size()));
  w.u32(0);  // payload_len, patched below
  const unsigned char* const payload = w.p;

  // kinds bitmap
  for (std::size_t i = 0; i < events.size(); i += 8) {
    unsigned byte = 0;
    for (std::size_t j = 0; j < 8 && i + j < events.size(); ++j) {
      if (events[i + j].kind == stream::Event::Kind::kCheckin) {
        byte |= 1u << j;
      }
    }
    w.u8(byte);
  }
  for (const stream::Event& e : events) w.varint(e.user);
  std::int64_t prev_t = 0;
  for (const stream::Event& e : events) {
    const std::int64_t t = e.time();
    // Unsigned subtraction: the delta wraps instead of overflowing, and
    // the decoder's matching unsigned addition wraps it back bit-exactly.
    w.zigzag(static_cast<std::int64_t>(static_cast<std::uint64_t>(t) -
                                       static_cast<std::uint64_t>(prev_t)));
    prev_t = t;
  }

  // gps columns
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) w.f64(e.gps.position.lat_deg);
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) w.f64(e.gps.position.lon_deg);
  }
  {
    unsigned byte = 0;
    std::size_t bit = 0;
    for (const stream::Event& e : events) {
      if (e.kind != stream::Event::Kind::kGps) continue;
      if (e.gps.has_fix) byte |= 1u << (bit % 8);
      if (++bit % 8 == 0) {
        w.u8(byte);
        byte = 0;
      }
    }
    if (bit % 8 != 0) w.u8(byte);
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) w.varint(e.gps.wifi_fingerprint);
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) w.f64(e.gps.accel_variance);
  }

  // checkin columns
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) w.varint(e.checkin.poi);
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      w.u8(static_cast<std::uint8_t>(e.checkin.category));
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      w.f64(e.checkin.location.lat_deg);
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      w.f64(e.checkin.location.lon_deg);
    }
  }

  // Patch payload_len, seal with the CRC over version..payload, and trim
  // the buffer to the bytes written.
  const auto payload_len = static_cast<std::uint32_t>(w.p - payload);
  FrameWriter{frame + 10}.u32(payload_len);
  w.u32(stream::crc32(std::string_view(
      reinterpret_cast<const char*>(frame) + 4, 10 + payload_len)));
  out.resize(header_at + static_cast<std::size_t>(w.p - frame));
}

void BinaryFrameDecoder::feed(std::string_view data) {
  // Same compaction policy as LineDecoder: the buffer stays bounded by
  // one partial frame plus one recv chunk.
  if (pos_ > 0 && pos_ >= 4096) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data);
}

FrameError BinaryFrameDecoder::resync_error(FrameErrorKind kind) {
  // The header cannot be trusted (wrong magic/version/caps), so its length
  // field cannot either: discard up to the next 0xB1 candidate — exactly
  // how LineDecoder abandons an oversized line at the next newline.
  const std::string_view rest = std::string_view(buf_).substr(pos_);
  const std::size_t next = rest.find(static_cast<char>(kFrameMagic0), 1);
  const std::size_t skip = next == std::string_view::npos ? rest.size() : next;
  FrameError error{kind, frame_detail(kind, rest.substr(0, skip))};
  pos_ += skip;
  return error;
}

std::optional<BinaryFrameDecoder::Result> BinaryFrameDecoder::next() {
  const std::size_t avail = buffered();
  if (avail == 0) return std::nullopt;
  const auto* data =
      reinterpret_cast<const unsigned char*>(buf_.data()) + pos_;

  // Magic: check however much of it has arrived; a mismatch anywhere in
  // the first four bytes means these bytes are not a frame.
  for (std::size_t i = 0; i < std::min(avail, kFrameMagic.size()); ++i) {
    if (data[i] != kFrameMagic[i]) {
      return resync_error(FrameErrorKind::kBadMagic);
    }
  }
  if (avail < kFrameHeaderBytes) return std::nullopt;

  if (data[4] != kFrameVersion) {
    return resync_error(FrameErrorKind::kBadVersion);
  }
  const std::uint32_t count = read_u32(data + 6);
  const std::uint32_t payload_len = read_u32(data + 10);
  if (data[5] != 0 || count == 0 || count > kMaxFrameRecords ||
      payload_len > kMaxFramePayloadBytes) {
    return resync_error(FrameErrorKind::kBadHeader);
  }
  const std::size_t total =
      kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (avail < total) return std::nullopt;

  // From here the length field is covered by the CRC check below, so a
  // rejected frame is skipped wholesale: pos_ advances past `total` on
  // every path, and the next frame decodes untouched.
  const std::string_view frame = std::string_view(buf_).substr(pos_, total);
  pos_ += total;

  const std::uint32_t crc =
      stream::crc32(frame.substr(4, 10 + payload_len));
  if (crc != read_u32(data + kFrameHeaderBytes + payload_len)) {
    return FrameError{FrameErrorKind::kCrcMismatch,
                      frame_detail(FrameErrorKind::kCrcMismatch, frame)};
  }

  // Refuse a count the payload cannot hold before allocating its slots.
  const std::size_t kind_bytes = (count + 7) / 8;
  if (payload_len < kind_bytes + kMinRecordBytes * count) {
    return FrameError{FrameErrorKind::kBadPayload,
                      frame_detail(FrameErrorKind::kBadPayload, frame)};
  }

  PayloadReader r{data + kFrameHeaderBytes, payload_len};
  Frame out{events_, total};
  // The buffer keeps the previous frame's records; the passes below write
  // every field of every record (kind first), so none of them survives.
  out.events.resize(count);

  std::size_t checkins = 0;
  if (r.need(kind_bytes)) {
    for (std::size_t i = 0; i < count; ++i) {
      const bool is_checkin =
          (r.p[r.off + i / 8] >> (i % 8)) & 1;
      out.events[i].kind = is_checkin ? stream::Event::Kind::kCheckin
                                      : stream::Event::Kind::kGps;
      checkins += is_checkin;
    }
    r.off += kind_bytes;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t user = r.varint();
    if (user > std::numeric_limits<trace::UserId>::max()) r.ok = false;
    out.events[i].user = static_cast<trace::UserId>(user);
  }
  std::int64_t prev_t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    prev_t = static_cast<std::int64_t>(static_cast<std::uint64_t>(prev_t) +
                                       static_cast<std::uint64_t>(r.zigzag()));
    stream::Event& e = out.events[i];
    if (e.kind == stream::Event::Kind::kGps) {
      e.gps.t = prev_t;
    } else {
      e.checkin.t = prev_t;
    }
  }

  // gps columns
  for (stream::Event& e : out.events) {
    if (e.kind == stream::Event::Kind::kGps) e.gps.position.lat_deg = r.f64();
  }
  for (stream::Event& e : out.events) {
    if (e.kind == stream::Event::Kind::kGps) e.gps.position.lon_deg = r.f64();
  }
  {
    const std::size_t gps = count - checkins;
    const std::size_t fix_bytes = (gps + 7) / 8;
    if (r.need(fix_bytes)) {
      std::size_t bit = 0;
      for (stream::Event& e : out.events) {
        if (e.kind != stream::Event::Kind::kGps) continue;
        e.gps.has_fix = (r.p[r.off + bit / 8] >> (bit % 8)) & 1;
        ++bit;
      }
      r.off += fix_bytes;
    }
  }
  for (stream::Event& e : out.events) {
    if (e.kind != stream::Event::Kind::kGps) continue;
    const std::uint64_t wifi = r.varint();
    if (wifi > std::numeric_limits<std::uint32_t>::max()) r.ok = false;
    e.gps.wifi_fingerprint = static_cast<std::uint32_t>(wifi);
  }
  for (stream::Event& e : out.events) {
    if (e.kind == stream::Event::Kind::kGps) e.gps.accel_variance = r.f64();
  }

  // checkin columns
  for (stream::Event& e : out.events) {
    if (e.kind != stream::Event::Kind::kCheckin) continue;
    const std::uint64_t poi = r.varint();
    if (poi > std::numeric_limits<trace::PoiId>::max()) r.ok = false;
    e.checkin.poi = static_cast<trace::PoiId>(poi);
  }
  for (stream::Event& e : out.events) {
    if (e.kind != stream::Event::Kind::kCheckin) continue;
    const std::uint8_t category = r.u8();
    if (category >= trace::kPoiCategoryCount) r.ok = false;
    e.checkin.category = static_cast<trace::PoiCategory>(category);
  }
  for (stream::Event& e : out.events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      e.checkin.location.lat_deg = r.f64();
    }
  }
  for (stream::Event& e : out.events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      e.checkin.location.lon_deg = r.f64();
    }
  }

  if (!r.ok || r.off != payload_len) {
    return FrameError{FrameErrorKind::kBadPayload,
                      frame_detail(FrameErrorKind::kBadPayload, frame)};
  }
  return Result{out};
}

std::optional<FrameError> BinaryFrameDecoder::finish() {
  std::optional<FrameError> out;
  if (buffered() > 0) {
    // An incomplete trailing frame: the peer disconnected mid-frame.
    out = FrameError{
        FrameErrorKind::kTruncated,
        frame_detail(FrameErrorKind::kTruncated,
                     std::string_view(buf_).substr(pos_))};
  }
  buf_.clear();
  pos_ = 0;
  return out;
}

}  // namespace geovalid::serve
