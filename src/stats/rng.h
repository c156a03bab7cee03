// Deterministic random number generation.
//
// Every stochastic component in geovalid draws from an explicitly seeded Rng
// so that dataset generation, model fitting and simulations are reproducible
// run-to-run (a requirement for the bench harnesses).
#pragma once

#include <cstdint>
#include <random>

namespace geovalid::stats {

/// A seeded 64-bit Mersenne Twister with convenience draws.
///
/// The class is intentionally a thin wrapper: all distribution logic lives in
/// samplers.h so it can be tested against closed-form moments.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();

  /// Uniform double in [lo, hi). Requires hi >= lo.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires hi >= lo.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with success probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p);

  /// Standard normal draw.
  [[nodiscard]] double normal() { return normal(0.0, 1.0); }

  /// Normal draw with the given mean and standard deviation (sigma >= 0).
  [[nodiscard]] double normal(double mean, double sigma);

  /// Poisson draw with the given mean (>= 0).
  [[nodiscard]] std::uint64_t poisson(double mean);

  /// Derives an independent child generator; `stream` distinguishes children
  /// of the same parent. Used to give each synthetic user its own stream so
  /// user ordering does not perturb other users' data.
  [[nodiscard]] Rng fork(std::uint64_t stream) const;

  /// Access to the raw engine for std:: distributions not wrapped here.
  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace geovalid::stats
