// Deterministic pseudo-random number generation for simulations.
//
// xoshiro256** (Blackman & Vigna): fast, high-quality, and — unlike
// std::mt19937 with std::*_distribution — bit-reproducible across standard
// library implementations, which the deterministic-replay invariant
// (DESIGN.md §6.8) requires.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>

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

  /// Standard normal via a 256-layer ziggurat (Marsaglia & Tsang 2000): one
  /// next_u64() and one table compare on about 98.5% of draws, no log.  Its
  /// bits give the layer (0-7), the sign (8) and a 53-bit uniform (11-63);
  /// the sign is ORed into the result, because a branch on a random bit
  /// mispredicts half the time.  The base layer's tail falls back to
  /// Marsaglia's exponential method, the wedges to one exp.  A second
  /// sampler rather than a faster normal(): existing streams (Opt's initial
  /// weights among them) must keep their Box-Muller values.
  double normal_ziggurat() {
    const ZigguratTables& t = ziggurat_tables();
    for (;;) {
      const std::uint64_t bits = next_u64();
      const std::size_t i = bits & 0xFFu;
      const std::uint64_t sign = (bits & 0x100u) << 55;
      const double x = static_cast<double>(bits >> 11) * 0x1.0p-53 * t.x[i];
      if (x < t.x[i + 1]) [[likely]]
        return with_sign(x, sign);
      if (i == 0) return with_sign(kZigguratR + ziggurat_tail(), sign);
      if (t.f[i] + (t.f[i + 1] - t.f[i]) * uniform() < std::exp(-0.5 * x * x))
        return with_sign(x, sign);
    }
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

  // The published 256-layer constants: where the base layer's tail starts,
  // and the area of every layer under f(x) = exp(-x^2/2).
  static constexpr double kZigguratR = 3.6541528853610088;
  static constexpr double kZigguratV = 4.92867323399e-3;

  /// Layer i spans [0, x[i]) between heights f[i] = f(x[i]) and f[i + 1];
  /// x[0] = V / f(R) is the base layer's virtual width, x[1] = R and
  /// x[256] = 0.  x < x[i + 1] lies under the curve.
  struct ZigguratTables {
    std::array<double, 257> x;
    std::array<double, 257> f;
  };
  static const ZigguratTables& ziggurat_tables() {
    static const ZigguratTables t = [] {
      ZigguratTables z{};
      const double fr = std::exp(-0.5 * kZigguratR * kZigguratR);
      z.x[0] = kZigguratV / fr;
      z.x[1] = kZigguratR;
      z.f[1] = fr;  // the base layer spans heights [0, f(R)]
      for (std::size_t i = 2; i < 256; ++i) {
        z.x[i] =
            std::sqrt(-2.0 * std::log(kZigguratV / z.x[i - 1] + z.f[i - 1]));
        z.f[i] = std::exp(-0.5 * z.x[i] * z.x[i]);
      }
      z.x[256] = 0.0;
      z.f[256] = 1.0;
      return z;
    }();
    return t;
  }

  /// The excess over R of a draw from the tail beyond R (Marsaglia 1964).
  double ziggurat_tail() {
    double a = 0, b = 0;
    do {
      a = -std::log(1.0 - uniform()) / kZigguratR;
      b = -std::log(1.0 - uniform());
    } while (b + b < a * a);
    return a;
  }

  static double with_sign(double magnitude, std::uint64_t sign_bit) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(magnitude) |
                                 sign_bit);
  }

  std::uint64_t s_[4]{};
};

}  // namespace cpe::sim
