#include "serve/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "stream/snapshot_io.h"
#include "trace/poi.h"

namespace geovalid::serve {
namespace {

/// Splits on commas into at most `max_fields` views. Returns the field
/// count, or max_fields + 1 when the line has too many separators.
std::size_t split(std::string_view line,
                  std::array<std::string_view, 9>& fields,
                  std::size_t max_fields) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (count == max_fields) return max_fields + 1;
    fields[count++] = line.substr(
        start, comma == std::string_view::npos ? comma : comma - start);
    if (comma == std::string_view::npos) return count;
    start = comma + 1;
  }
}

/// Same numeric grammar as the CSV reader (trace/csv.cpp): strict integers
/// via from_chars, doubles via strtod over a bounded copy (accepts the
/// nan/inf spellings the fault injector can produce — the quarantine path
/// rejects them semantically, with the same reason as CSV ingest).
template <typename T>
bool parse_int(std::string_view s, T& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_double(std::string_view s, double& out) {
  char buf[64];
  if (s.empty() || s.size() >= sizeof(buf)) return false;
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  out = std::strtod(buf, &end);
  return end == buf + s.size();
}

WireError err(const char* what) { return WireError{what}; }

}  // namespace

WireResult parse_wire_record(std::string_view line) {
  std::array<std::string_view, 9> f;
  const std::size_t n = split(line, f, 9);
  if (n == 0 || f[0].empty()) return err("empty record");
  if (f[0] == "gps") {
    if (n != 8) return err("gps record expects 8 fields");
    trace::UserId user = 0;
    trace::GpsPoint p;
    int has_fix = 0;
    if (!parse_int(f[1], user)) return err("bad user field");
    if (!parse_int(f[2], p.t)) return err("bad t field");
    if (!parse_double(f[3], p.position.lat_deg)) return err("bad lat field");
    if (!parse_double(f[4], p.position.lon_deg)) return err("bad lon field");
    if (!parse_int(f[5], has_fix)) return err("bad has_fix field");
    p.has_fix = has_fix != 0;
    if (!parse_int(f[6], p.wifi_fingerprint)) return err("bad wifi field");
    if (!parse_double(f[7], p.accel_variance)) {
      return err("bad accel_var field");
    }
    return stream::Event::gps_sample(user, p);
  }
  if (f[0] == "checkin") {
    if (n != 7) return err("checkin record expects 7 fields");
    trace::UserId user = 0;
    trace::Checkin c;
    if (!parse_int(f[1], user)) return err("bad user field");
    if (!parse_int(f[2], c.t)) return err("bad t field");
    if (!parse_int(f[3], c.poi)) return err("bad poi field");
    const auto category = trace::parse_poi_category(f[4]);
    if (!category) return err("unknown category");
    c.category = *category;
    if (!parse_double(f[5], c.location.lat_deg)) return err("bad lat field");
    if (!parse_double(f[6], c.location.lon_deg)) return err("bad lon field");
    return stream::Event::checkin_event(user, c);
  }
  return err("unknown record kind");
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

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_zigzag(std::string& out, std::int64_t v) {
  put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                      static_cast<std::uint64_t>(v >> 63));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

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
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(p[off + i]) << (8 * i);
    }
    off += 8;
    return std::bit_cast<double>(bits);
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
  out.append(reinterpret_cast<const char*>(kFrameMagic.data()),
             kFrameMagic.size());
  out.push_back(static_cast<char>(kFrameVersion));
  out.push_back('\0');  // flags
  put_u32(out, static_cast<std::uint32_t>(events.size()));
  put_u32(out, 0);  // payload_len, patched below
  const std::size_t payload_at = out.size();

  // kinds bitmap
  for (std::size_t i = 0; i < events.size(); i += 8) {
    unsigned byte = 0;
    for (std::size_t j = 0; j < 8 && i + j < events.size(); ++j) {
      if (events[i + j].kind == stream::Event::Kind::kCheckin) {
        byte |= 1u << j;
      }
    }
    out.push_back(static_cast<char>(byte));
  }
  for (const stream::Event& e : events) put_varint(out, e.user);
  std::int64_t prev_t = 0;
  for (const stream::Event& e : events) {
    const std::int64_t t = e.time();
    // Unsigned subtraction: the delta wraps instead of overflowing, and
    // the decoder's matching unsigned addition wraps it back bit-exactly.
    put_zigzag(out, static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(t) -
                        static_cast<std::uint64_t>(prev_t)));
    prev_t = t;
  }

  // gps columns
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) {
      put_f64(out, e.gps.position.lat_deg);
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) {
      put_f64(out, e.gps.position.lon_deg);
    }
  }
  {
    unsigned byte = 0;
    std::size_t bit = 0;
    for (const stream::Event& e : events) {
      if (e.kind != stream::Event::Kind::kGps) continue;
      if (e.gps.has_fix) byte |= 1u << (bit % 8);
      if (++bit % 8 == 0) {
        out.push_back(static_cast<char>(byte));
        byte = 0;
      }
    }
    if (bit % 8 != 0) out.push_back(static_cast<char>(byte));
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) {
      put_varint(out, e.gps.wifi_fingerprint);
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) {
      put_f64(out, e.gps.accel_variance);
    }
  }

  // checkin columns
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      put_varint(out, e.checkin.poi);
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      out.push_back(static_cast<char>(e.checkin.category));
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      put_f64(out, e.checkin.location.lat_deg);
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      put_f64(out, e.checkin.location.lon_deg);
    }
  }

  // Patch payload_len, then seal with the CRC over version..payload.
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(out.size() - payload_at);
  for (int i = 0; i < 4; ++i) {
    out[header_at + 10 + static_cast<std::size_t>(i)] =
        static_cast<char>((payload_len >> (8 * i)) & 0xFF);
  }
  const std::uint32_t crc = stream::crc32(
      std::string_view(out).substr(header_at + 4, 10 + payload_len));
  put_u32(out, crc);
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

  PayloadReader r{data + kFrameHeaderBytes, payload_len};
  Frame out;
  out.wire_bytes = total;
  out.events.resize(count);

  const std::size_t kind_bytes = (count + 7) / 8;
  std::size_t checkins = 0;
  if (r.need(kind_bytes)) {
    for (std::size_t i = 0; i < count; ++i) {
      const bool is_checkin =
          (r.p[r.off + i / 8] >> (i % 8)) & 1;
      if (is_checkin) {
        out.events[i] = stream::Event::checkin_event(0, {});
        ++checkins;
      }
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
  return Result{std::move(out)};
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
