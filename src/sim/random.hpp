// Deterministic pseudo-random number generation for simulations.
//
// xoshiro256** (Blackman & Vigna): fast, high-quality, and — unlike
// std::mt19937 with std::*_distribution — bit-reproducible across standard
// library implementations, which the deterministic-replay invariant
// (DESIGN.md §6.8) requires.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>

#include "sim/assert.hpp"

namespace cpe::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    CPE_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) {
    CPE_EXPECTS(n > 0);
    // Lemire's multiply-shift rejection method (unbiased).
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) {
    CPE_EXPECTS(mean > 0);
    double u = uniform();
    while (u == 0.0) u = uniform();
    return -mean * std::log(u);
  }

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = uniform();
    while (u1 == 0.0) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
  }

  /// Two independent standard normals via Marsaglia's polar method: no trig,
  /// one log and one sqrt per pair.  A second sampler rather than a faster
  /// normal(): existing streams (Opt's initial weights among them) must keep
  /// their Box-Muller values.
  std::pair<double, double> normal_pair() {
    double u = 0, v = 0, s = 0;
    do {
      u = 2.0 * uniform() - 1.0;
      v = 2.0 * uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    return {u * f, v * f};
  }

  /// True with probability p.
  bool chance(double p) { return uniform() < p; }

  /// Derive an independent, reproducible sub-stream (for per-host/per-task
  /// generators that must not perturb each other's sequences).
  Rng split() { return Rng(next_u64() ^ 0xd1b54a32d192ed03ull); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace cpe::sim
