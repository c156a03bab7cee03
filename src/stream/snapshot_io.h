// Binary snapshot encoding for the streaming engine's checkpoint payloads.
//
// The writer/reader pair defines the byte-level vocabulary every piece of
// checkpointable state speaks: fixed-width little-endian integers and
// bit-cast doubles, so a payload produced on any platform restores
// bit-identically on any other. Nothing here knows about files, headers or
// checksums — that container lives in stream/checkpoint.h; this layer is
// shared by the engine, the online detector and the online matcher, whose
// save()/load() methods are the single source of truth for what state a
// shard carries.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace geovalid::stream {

/// Thrown by SnapshotReader when a payload ends early or contains a value
/// outside its field's domain. The checkpoint container's CRC makes this
/// unreachable for honest files; it exists so a corrupt payload fails loud
/// instead of restoring garbage state.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `v` with its bytes in little-endian order, and back: a byte swap on
/// big-endian hosts, the identity elsewhere.
[[nodiscard]] inline std::uint32_t little_endian(std::uint32_t v) {
  return std::endian::native == std::endian::big ? __builtin_bswap32(v) : v;
}
[[nodiscard]] inline std::uint64_t little_endian(std::uint64_t v) {
  return std::endian::native == std::endian::big ? __builtin_bswap64(v) : v;
}

/// Appends fixed-width little-endian fields to a growing byte buffer.
/// Multi-byte fields are appended as one block: one capacity check per
/// field instead of one per byte, which matters when a checkpoint
/// serializes hundreds of thousands of fields on the engine's quiesce
/// path.
class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { append(little_endian(v)); }
  void u64(std::uint64_t v) { append(little_endian(v)); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Bit-exact: the double's IEEE-754 pattern, not a decimal rendering.
  void f64(double v);

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed opaque byte string (u64 count + raw bytes): how one
  /// payload embeds another (the serve checkpoint wraps the engine's).
  void blob(std::string_view bytes) {
    u64(bytes.size());
    buf_.append(bytes);
  }

  /// Pre-sizes the buffer; callers that know the approximate payload size
  /// (the engine remembers its last checkpoint's) avoid regrowth copies.
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  void append(T v) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  std::string buf_;
};

/// Consumes fields written by SnapshotWriter, in the same order. Every read
/// bounds-checks; overrunning the payload throws SnapshotError.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(next()); }
  std::uint32_t u32() { return little_endian(fixed<std::uint32_t>()); }
  std::uint64_t u64() { return little_endian(fixed<std::uint64_t>()); }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64();

  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw SnapshotError("snapshot: boolean field out of domain");
    return v != 0;
  }

  /// Size prefix of a following sequence, bounded so a corrupt length can
  /// never trigger a multi-gigabyte allocation before the next read fails.
  std::size_t length();

  /// Reads a SnapshotWriter::blob(): bounded length prefix + raw bytes.
  std::string blob() {
    const std::size_t n = length();
    std::string out(data_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  char next() {
    require(1);
    return data_[pos_++];
  }

  template <typename T>
  T fixed() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void require(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw SnapshotError("snapshot: payload truncated");
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) over `data`. The
/// checkpoint container stores this over its payload so torn or bit-flipped
/// files are rejected instead of restored. On x86-64 CPUs with carry-less
/// multiply, inputs of 64 bytes or more fold their 16-byte blocks with it;
/// everything else runs slicing-by-8 tables. Both give the same value.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

namespace detail {  // crc32 by the tables alone, on any CPU, for the tests
[[nodiscard]] std::uint32_t crc32_slicing_by_8(std::string_view data);
}

}  // namespace geovalid::stream
