// Deterministic random number generation.
//
// Every stochastic choice in the simulator and in the protocols (mobility,
// loss, timers, slot selection, RPF tie-breaking) draws from an Rng that is
// seeded per-trial, so any experiment is exactly reproducible from its
// (seed, parameters) pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dapes::common {

/// Derive the seed for trial `index` of a multi-trial experiment from the
/// experiment's base seed. SplitMix64-style finalizer: adjacent indices give
/// uncorrelated streams, and the result depends only on (base_seed, index) —
/// not on execution order or thread placement — so a trial can be replayed
/// in isolation and parallel runs are bit-identical to serial ones (see
/// EXPERIMENTS.md "Seed derivation").
uint64_t derive_seed(uint64_t base_seed, uint64_t index);

/// xoshiro256** by Blackman & Vigna, seeded via SplitMix64.
/// Small, fast, and good enough statistical quality for simulation.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t next();

  /// Uniform in [0, bound) without modulo bias. bound must be > 0.
  uint64_t next_below(uint64_t bound);

  /// Uniform integer in the closed interval [lo, hi].
  int64_t uniform_int(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal (mean 0, stddev 1) via Box-Muller. Always consumes
  /// exactly two uniform draws — no cached spare — so the stream position
  /// after a call is deterministic.
  double gaussian();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for per-node streams).
  Rng fork();

 private:
  uint64_t state_[4];
};

}  // namespace dapes::common
