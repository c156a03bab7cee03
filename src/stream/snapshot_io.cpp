#include "stream/snapshot_io.h"

#include <array>
#include <bit>

namespace geovalid::stream {
namespace {

/// Slicing-by-8 tables (Kounavis and Berry, 2005): row 0 is the classic
/// byte-at-a-time table of the reflected IEEE polynomial, and row k maps a
/// byte to its CRC contribution k bytes further back, so one step folds
/// eight input bytes with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void SnapshotWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

double SnapshotReader::f64() { return std::bit_cast<double>(u64()); }

std::size_t SnapshotReader::length() {
  const std::uint64_t n = u64();
  // A sequence element is at least one byte, so a valid length can never
  // exceed the bytes left in the payload.
  if (n > remaining()) {
    throw SnapshotError("snapshot: sequence length exceeds payload");
  }
  return static_cast<std::size_t>(n);
}

std::uint32_t crc32(std::string_view data) {
  static const CrcTables t = make_crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace geovalid::stream
