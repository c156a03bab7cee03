#include "stats/entropy.h"

#include <cmath>

namespace geovalid::stats {

double entropy_bits(std::span<const std::size_t> counts) {
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  if (total == 0) return 0.0;

  double h = 0.0;
  for (std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace geovalid::stats
