#include "fpm/common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

namespace fpm {
namespace {

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BoundedOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(13);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(17);
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.NextExponential(3.0);
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(RngTest, NormalMomentsConverge) {
  Rng rng(19);
  double sum = 0, sq = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.NextNormal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, PoissonMeanConvergesSmallAndLarge) {
  Rng rng(23);
  for (double mean : {0.5, 4.0, 20.0, 60.0}) {
    double sum = 0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) sum += rng.NextPoisson(mean);
    EXPECT_NEAR(sum / kN, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(27);
  EXPECT_EQ(rng.NextPoisson(0.0), 0u);
}

// Zipf(s) over n ranks from its formula: P(r) = (r+1)^-s / H(n, s).
double ZipfPmf(uint32_t n, double s, uint32_t rank) {
  double harmonic = 0;
  for (uint32_t r = 1; r <= n; ++r) harmonic += std::pow(r, -s);
  return std::pow(rank + 1, -s) / harmonic;
}

// Fraction of `draws` samples that land on each rank.
std::vector<double> EmpiricalPmf(const ZipfSampler& zipf, uint32_t n,
                                 uint64_t seed, int draws) {
  Rng rng(seed);
  std::vector<double> freq(n, 0.0);
  for (int i = 0; i < draws; ++i) {
    const uint32_t rank = zipf.Sample(&rng);
    EXPECT_LT(rank, n);
    if (rank < n) freq[rank] += 1.0 / draws;
  }
  return freq;
}

TEST(ZipfSamplerTest, RankZeroMostProbable) {
  const std::vector<double> freq =
      EmpiricalPmf(ZipfSampler(100, 1.0), 100, 29, 100000);
  EXPECT_GT(freq[0], freq[1]);
  EXPECT_GT(freq[1], freq[50]);
}

TEST(ZipfSamplerTest, PmfSumsToOne) {
  // Every sample lands on a rank in [0, n), so the empirical pmf sums
  // to one.
  double total = 0;
  for (double p : EmpiricalPmf(ZipfSampler(50, 1.2), 50, 37, 20000)) {
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, ZeroExponentIsUniform) {
  const std::vector<double> freq =
      EmpiricalPmf(ZipfSampler(10, 0.0), 10, 41, 100000);
  for (uint32_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(freq[r], 0.1, 0.01) << "rank " << r;
  }
}

TEST(ZipfSamplerTest, EmpiricalMatchesPmf) {
  const std::vector<double> freq =
      EmpiricalPmf(ZipfSampler(20, 1.0), 20, 31, 100000);
  for (uint32_t r = 0; r < 20; ++r) {
    EXPECT_NEAR(freq[r], ZipfPmf(20, 1.0, r), 0.01) << "rank " << r;
  }
}

TEST(WeightedSamplerTest, RespectsWeights) {
  WeightedSampler sampler({1.0, 3.0, 0.0, 6.0});
  Rng rng(37);
  constexpr int kN = 100000;
  std::vector<int> counts(4, 0);
  for (int i = 0; i < kN; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_NEAR(counts[0], kN * 0.1, kN * 0.01);
  EXPECT_NEAR(counts[1], kN * 0.3, kN * 0.015);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3], kN * 0.6, kN * 0.015);
}

TEST(WeightedSamplerTest, SingleWeight) {
  WeightedSampler sampler({5.0});
  Rng rng(41);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sampler.Sample(&rng), 0u);
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  uint64_t state = 0;
  const uint64_t first = SplitMix64(&state);
  uint64_t state2 = 0;
  EXPECT_EQ(first, SplitMix64(&state2));
  EXPECT_NE(SplitMix64(&state), first);
}

}  // namespace
}  // namespace fpm
