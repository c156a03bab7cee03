#include "stream/snapshot_io.h"

#include <array>
#include <bit>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace geovalid::stream {
namespace {

/// Slicing-by-8 tables (Kounavis and Berry, 2005): row 0 is the classic
/// byte-at-a-time table of the reflected IEEE polynomial, and row k maps a
/// byte to its CRC contribution k bytes further back, so one step folds
/// eight input bytes with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
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

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Advances the running (pre-inverted) CRC `c` over `n` bytes by the
/// tables, eight bytes a step.
std::uint32_t crc32_tables(std::uint32_t c, const unsigned char* p,
                           std::size_t n) {
  const CrcTables& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
/// Advances the running CRC `c` over `n` bytes, a multiple of 16 and at
/// least 64, by carry-less multiplication (V. Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009, with its reflected IEEE constants, as zlib has them):
/// four 128-bit lanes fold 64 bytes a step, one lane folds in the others
/// and the 16-byte blocks left, and a Barrett reduction ends at 32 bits.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(
    std::uint32_t c, const unsigned char* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  // x times k carried onto y: 512 bits on with k1k2, 128 with k3k4.
  const auto fold = [](__m128i x, __m128i k, __m128i y)
      __attribute__((target("pclmul,sse4.1"))) {
        return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                           _mm_clmulepi64_si128(x, k, 0x11)),
                             y);
      };
  const auto* in = reinterpret_cast<const __m128i*>(p);
  const __m128i* const end = in + n / 16;
  __m128i x0 = _mm_xor_si128(_mm_loadu_si128(in),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = _mm_loadu_si128(in + 1);
  __m128i x2 = _mm_loadu_si128(in + 2);
  __m128i x3 = _mm_loadu_si128(in + 3);
  for (in += 4; end - in >= 4; in += 4) {
    x0 = fold(x0, k1k2, _mm_loadu_si128(in));
    x1 = fold(x1, k1k2, _mm_loadu_si128(in + 1));
    x2 = fold(x2, k1k2, _mm_loadu_si128(in + 2));
    x3 = fold(x3, k1k2, _mm_loadu_si128(in + 3));
  }
  x0 = fold(fold(fold(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; in < end; ++in) x0 = fold(x0, k3k4, _mm_loadu_si128(in));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));  // to 64 bits
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, x1), 1));
}

// Set at load; read before that, it is false and the tables serve.
const bool kHasClmul =
    __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif

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

std::uint32_t detail::crc32_slicing_by_8(std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  return crc32_tables(0xFFFFFFFFu, p, data.size()) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (n >= 64 && kHasClmul) {  // the 16-byte blocks; the tables the rest
    c = crc32_clmul(c, p, n & ~std::size_t{15});
    p += n & ~std::size_t{15};
    n &= 15;
  }
#endif
  return crc32_tables(c, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace geovalid::stream
