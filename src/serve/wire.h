// Line-delimited ingest wire protocol: the bytes clients stream at the
// serve layer's TCP ingest port.
//
// One record per line, LF or CRLF terminated: a gps.csv or checkins.csv
// row behind its kind verb, parsed by the same trace/fields.h functions
// as the CSV datasets, so both share one field and number grammar:
//
//   gps,<user>,<t>,<lat>,<lon>,<has_fix>,<wifi>,<accel_var>
//   checkin,<user>,<t>,<poi>,<category>,<lat>,<lon>
//
// Parsing is syntax-only — field count, numeric shape, known category.
// Semantic validation (coordinate ranges, timestamp bounds, per-user
// ordering) stays in the engine's quarantine path, so a record that would
// be quarantined when read from CSV is quarantined identically when it
// arrives over a socket. Lines that never parse go to the dead-letter file
// via Quarantine::record_raw() with reason `malformed_line`.
//
// LineDecoder turns an arbitrary recv() chunking into complete lines: a
// record may straddle any number of reads, and a line longer than the cap
// is surfaced once as truncated, with the remainder discarded up to the
// next newline (the stream resynchronizes instead of poisoning every
// subsequent record).
//
// Alongside the text grammar lives the binary frame format (normative
// byte layout in docs/SERVICE.md): length-prefixed frames carrying a
// columnar batch of records — varint user ids, zigzag-delta timestamps,
// bit-cast little-endian f64 coordinates per snapshot_io's conventions,
// and a CRC32 trailer. The first byte of a frame is 0xB1, which is not
// valid in any text record, so the first byte a connection sends selects
// binary vs. text for that connection's lifetime; existing text clients
// are untouched. BinaryFrameDecoder mirrors LineDecoder's contract:
// arbitrary recv() chunking, typed rejection of malformed frames with a
// hex-prefix detail, and resynchronization so one bad frame never poisons
// the frames behind it.
#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "stream/event.h"

namespace geovalid::serve {

/// Longest accepted ingest line (bytes, terminator excluded). Generously
/// above any well-formed record; a line this long is garbage or abuse.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Why a line failed to parse (the dead-letter detail prefix).
struct WireError {
  std::string message;
};

/// parse_wire_record: an Event, or the reason the line is not one.
using WireResult = std::variant<stream::Event, WireError>;

[[nodiscard]] WireResult parse_wire_record(std::string_view line);

/// Appends `v` in std::to_chars form (shortest round-trip for doubles):
/// the one number formatter of the wire grammar and the JSON bodies.
template <typename T>
void append_number(std::string& out, T v) {
  char buf[32];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

/// Renders an event in the wire grammar, newline included. Doubles use
/// shortest-roundtrip formatting, so parse(format(e)) is bit-exact — the
/// loadgen replays a dataset through a socket without perturbing verdicts.
void append_wire_record(std::string& out, const stream::Event& e);
[[nodiscard]] std::string format_wire_record(const stream::Event& e);

/// Incremental line splitter over a byte stream.
class LineDecoder {
 public:
  explicit LineDecoder(std::size_t max_line_bytes = kMaxLineBytes)
      : max_line_bytes_(max_line_bytes) {}

  /// One complete line, stripped of its LF/CRLF terminator. `truncated`
  /// marks a line that blew the cap: `text` is the kept prefix, the rest of
  /// the physical line was dropped.
  struct Line {
    std::string_view text;  ///< valid until the next LineDecoder call
    bool truncated = false;
  };

  /// Appends raw bytes from the socket.
  void feed(std::string_view data);

  /// Pops the next complete line, nullopt when more bytes are needed.
  [[nodiscard]] std::optional<Line> next();

  /// The trailing unterminated partial line at connection EOF (an abrupt
  /// mid-record disconnect), if any. Resets the decoder.
  [[nodiscard]] std::optional<Line> finish();

  /// Bytes buffered awaiting a newline.
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::size_t max_line_bytes_;
  std::string buf_;
  std::size_t pos_ = 0;      ///< consumed prefix of buf_
  bool discarding_ = false;  ///< inside an oversized line, seeking newline
};

// ---------------------------------------------------------------------------
// Binary frame format (docs/SERVICE.md has the normative byte table).
// ---------------------------------------------------------------------------

/// First byte of every binary frame. 0xB1 is outside 7-bit ASCII, so no
/// text-grammar record can start with it — the per-connection format
/// negotiation is a one-byte sniff.
inline constexpr unsigned char kFrameMagic0 = 0xB1;

/// Full 4-byte frame magic: 0xB1 'G' 'V' 'F'.
inline constexpr std::array<unsigned char, 4> kFrameMagic = {0xB1, 'G', 'V',
                                                             'F'};

/// The one frame version this build speaks.
inline constexpr std::uint8_t kFrameVersion = 1;

/// Most records one frame may carry. Encoders split larger batches; a
/// header claiming more is rejected as `bad_header` without trusting its
/// length field.
inline constexpr std::size_t kMaxFrameRecords = 65536;

/// Largest accepted frame payload (bytes, header/trailer excluded). Far
/// above any well-formed kMaxFrameRecords payload; a header claiming more
/// is garbage or abuse, rejected without buffering it.
inline constexpr std::size_t kMaxFramePayloadBytes = 4 * 1024 * 1024;

/// Why a frame was rejected. The names double as the fixed label
/// vocabulary of `serve_wire_malformed_frames_total{reason=...}`.
enum class FrameErrorKind : std::uint8_t {
  kBadMagic,     ///< bytes between frames that are not a frame start
  kBadVersion,   ///< magic ok, version unknown
  kBadHeader,    ///< flags/count/payload_len outside the caps
  kCrcMismatch,  ///< frame complete but the CRC32 trailer disagrees
  kBadPayload,   ///< CRC ok but the columnar payload does not decode
  kTruncated,    ///< connection ended mid-frame
};

inline constexpr std::size_t kFrameErrorKindCount = 6;

[[nodiscard]] std::string_view to_string(FrameErrorKind kind);

/// A rejected frame: the typed reason plus a dead-letter `detail` that
/// carries a hex prefix of the offending bytes (never the raw bytes — the
/// dead-letter file stays one printable record per line).
struct FrameError {
  FrameErrorKind kind = FrameErrorKind::kBadMagic;
  std::string detail;  ///< e.g. "bad_magic bytes=7 hex=b1475600..."
};

/// Encodes one frame carrying `events` (at most kMaxFrameRecords; larger
/// spans must be split by the caller) and appends it to `out`. The
/// encoding is bit-exact: decode(encode(events)) reproduces every field,
/// doubles included, so binary replay cannot perturb verdicts.
void append_binary_frame(std::string& out,
                         std::span<const stream::Event> events);

/// Incremental frame splitter + columnar decoder over a byte stream.
///
/// Error handling never poisons the stream: a frame whose header parsed
/// (so its length field was sane) is skipped wholesale on CRC or payload
/// failure; bytes that are not a frame start are discarded up to the next
/// 0xB1 candidate. Either way the next well-formed frame decodes.
class BinaryFrameDecoder {
 public:
  /// One decoded frame: the records in wire order, plus the frame's size
  /// on the wire (header + payload + trailer) for byte accounting.
  /// `events` is the decoder's own buffer, reused by every frame: it holds
  /// this frame until the next next() or finish().
  struct Frame {
    std::vector<stream::Event>& events;
    std::size_t wire_bytes = 0;
  };

  using Result = std::variant<Frame, FrameError>;

  /// Appends raw bytes from the socket.
  void feed(std::string_view data);

  /// Pops the next complete frame or frame-level error; nullopt when more
  /// bytes are needed.
  [[nodiscard]] std::optional<Result> next();

  /// The trailing incomplete frame at connection EOF (an abrupt mid-frame
  /// disconnect), if any. Resets the decoder.
  [[nodiscard]] std::optional<FrameError> finish();

  /// Bytes buffered awaiting a complete frame.
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  [[nodiscard]] FrameError resync_error(FrameErrorKind kind);

  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  std::vector<stream::Event> events_;  ///< the latest frame's records
};

}  // namespace geovalid::serve
