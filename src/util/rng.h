// Deterministic pseudo-random number generation.
//
// Experiments must be bit-reproducible across runs and platforms, so we
// implement xoshiro256** (public-domain algorithm by Blackman & Vigna)
// seeded via SplitMix64 rather than relying on std:: engines whose
// distributions are implementation-defined. All distribution sampling is
// implemented here with fixed algorithms for the same reason.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace catalyst {

/// xoshiro256** seeded with SplitMix64. Cheap to copy; copies diverge.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Lognormal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double exponential(double rate);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Derives an independent child generator; stable for a given (state,
  /// stream) pair regardless of how many values the child consumes.
  Rng fork(std::uint64_t stream) const;

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace catalyst
