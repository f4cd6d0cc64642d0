#include "common/rng.hpp"

#include <cmath>

namespace dapes::common {

namespace {

uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t derive_seed(uint64_t base_seed, uint64_t index) {
  uint64_t x = base_seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = splitmix64(sm);
  }
}

uint64_t Rng::next() {
  uint64_t result = rotl(state_[1] * 5, 7) * 9;
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

uint64_t Rng::next_below(uint64_t bound) {
  // Lemire-style rejection to avoid modulo bias.
  uint64_t threshold = (-bound) % bound;
  for (;;) {
    uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::uniform_int(int64_t lo, int64_t hi) {
  if (lo >= hi) return lo;
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(next_below(span));
}

double Rng::uniform01() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double mean) {
  double u = uniform01();
  // Guard the log against u == 0.
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::gaussian() {
  double u1 = uniform01();
  // Guard the log against u1 == 0.
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  double u2 = uniform01();
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

Rng Rng::fork() { return Rng(next()); }

}  // namespace dapes::common
