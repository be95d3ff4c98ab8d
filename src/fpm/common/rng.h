// Deterministic pseudo-random number generation and the samplers needed
// by the synthetic dataset generators (Quest, WebDocs-like, AP-like).
//
// We intentionally avoid std::mt19937 + std::*_distribution: their output
// is not guaranteed identical across standard library implementations,
// and reproducible datasets are a hard requirement for the benches.

#ifndef FPM_COMMON_RNG_H_
#define FPM_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "fpm/common/logging.h"

namespace fpm {

/// SplitMix64: used to seed Xoshiro and as a cheap standalone generator.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality, fully deterministic PRNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& s : s_) s = SplitMix64(&sm);
  }

  /// Uniform 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    FPM_DCHECK(bound > 0);
    // Lemire's nearly-divisionless method with rejection.
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = -bound % bound;
      while (l < t) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

  /// Exponential with the given mean (mean > 0).
  double NextExponential(double mean) {
    FPM_DCHECK(mean > 0);
    double u = NextDouble();
    // Guard log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Normal via Marsaglia polar method.
  double NextNormal(double mean, double stddev) {
    if (have_spare_) {
      have_spare_ = false;
      return mean + stddev * spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * NextDouble() - 1.0;
      v = 2.0 * NextDouble() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    have_spare_ = true;
    return mean + stddev * u * factor;
  }

  /// Poisson. Knuth's method for small means, normal approximation
  /// (rounded, clamped at 0) for large means — adequate for workload
  /// generation where only the length distribution's shape matters.
  uint32_t NextPoisson(double mean) {
    FPM_DCHECK(mean >= 0);
    if (mean <= 0) return 0;
    if (mean < 32.0) {
      const double limit = std::exp(-mean);
      uint32_t k = 0;
      double p = 1.0;
      do {
        ++k;
        p *= NextDouble();
      } while (p > limit);
      return k - 1;
    }
    double x = NextNormal(mean, std::sqrt(mean));
    if (x < 0) return 0;
    return static_cast<uint32_t>(x + 0.5);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

/// Samples from a Zipf(s) distribution over {0, 1, ..., n-1} using a
/// precomputed inverse-CDF table (O(log n) per sample).
class ZipfSampler {
 public:
  /// `n` ranks, exponent `s` (s = 0 is uniform; larger = more skewed).
  ZipfSampler(uint32_t n, double s);

  /// Returns a rank in [0, n); rank 0 is most probable.
  uint32_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i)
};

/// Samples indices in [0, n) proportionally to the given non-negative
/// weights (cumulative-table inversion; O(log n) per sample).
class WeightedSampler {
 public:
  explicit WeightedSampler(const std::vector<double>& weights);

  uint32_t Sample(Rng* rng) const;

  double total_weight() const { return cdf_.empty() ? 0.0 : cdf_.back(); }

 private:
  std::vector<double> cdf_;  // inclusive prefix sums
};

}  // namespace fpm

#endif  // FPM_COMMON_RNG_H_
