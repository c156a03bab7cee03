#include "stats/rng.h"

#include <algorithm>
#include <stdexcept>

namespace geovalid::stats {
namespace {

/// SplitMix64 step — the standard way to derive decorrelated child seeds.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  if (hi < lo) throw std::invalid_argument("Rng::uniform: hi < lo");
  if (hi == lo) return lo;
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw std::invalid_argument("Rng::uniform_int: hi < lo");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

bool Rng::bernoulli(double p) {
  const double clamped = std::clamp(p, 0.0, 1.0);
  return std::bernoulli_distribution(clamped)(engine_);
}

double Rng::normal(double mean, double sigma) {
  if (sigma < 0.0) throw std::invalid_argument("Rng::normal: sigma < 0");
  if (sigma == 0.0) return mean;
  return std::normal_distribution<double>(mean, sigma)(engine_);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument("Rng::poisson: mean < 0");
  if (mean == 0.0) return 0;
  return std::poisson_distribution<std::uint64_t>(mean)(engine_);
}

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the stream id through SplitMix64 twice so consecutive stream ids
  // yield unrelated seeds.
  std::uint64_t state = stream ^ 0xA076'1D64'78BD'642FULL;
  std::uint64_t mixed = splitmix64(state);
  // Also mix in entropy drawn deterministically from a copy of the engine
  // state via its next output.
  std::mt19937_64 copy = engine_;
  std::uint64_t base = copy();
  state = base ^ mixed;
  return Rng(splitmix64(state));
}

}  // namespace geovalid::stats
