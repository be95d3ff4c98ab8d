#include "fpm/bitvec/popcount.h"

#include <gtest/gtest.h>

#include <vector>

#include "fpm/common/bits.h"
#include "fpm/common/rng.h"

namespace fpm {
namespace {

// Every concrete strategy must agree with the trivially correct scalar
// builtin across random word arrays of awkward lengths (0..67 covers
// every SIMD tail case).
class PopcountStrategyTest
    : public ::testing::TestWithParam<PopcountStrategy> {};

TEST_P(PopcountStrategyTest, CountOnesMatchesReference) {
  const PopcountStrategy strategy = GetParam();
  if (!PopcountStrategyAvailable(strategy)) {
    GTEST_SKIP() << "strategy unavailable on this host";
  }
  Rng rng(42);
  for (size_t n = 0; n <= 67; ++n) {
    std::vector<uint64_t> words(n);
    for (auto& w : words) w = rng.NextU64();
    uint64_t expected = 0;
    for (uint64_t w : words) expected += PopCount64(w);
    EXPECT_EQ(CountOnes(words.data(), n, strategy), expected) << "n=" << n;
  }
}

TEST_P(PopcountStrategyTest, AndCountMatchesReference) {
  const PopcountStrategy strategy = GetParam();
  if (!PopcountStrategyAvailable(strategy)) {
    GTEST_SKIP() << "strategy unavailable on this host";
  }
  Rng rng(43);
  for (size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 16ul, 33ul, 64ul, 65ul}) {
    std::vector<uint64_t> a(n), b(n), out(n, 0xdeadbeef);
    for (auto& w : a) w = rng.NextU64();
    for (auto& w : b) w = rng.NextU64();
    uint64_t expected = 0;
    for (size_t i = 0; i < n; ++i) expected += PopCount64(a[i] & b[i]);
    EXPECT_EQ(AndCount(a.data(), b.data(), out.data(), n, strategy), expected)
        << "n=" << n;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], a[i] & b[i]);
  }
}

TEST_P(PopcountStrategyTest, ExtremesAllZerosAllOnes) {
  const PopcountStrategy strategy = GetParam();
  if (!PopcountStrategyAvailable(strategy)) {
    GTEST_SKIP() << "strategy unavailable on this host";
  }
  std::vector<uint64_t> zeros(10, 0), ones(10, ~0ull);
  EXPECT_EQ(CountOnes(zeros.data(), 10, strategy), 0u);
  EXPECT_EQ(CountOnes(ones.data(), 10, strategy), 640u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PopcountStrategyTest,
    ::testing::Values(PopcountStrategy::kLut16, PopcountStrategy::kSwar,
                      PopcountStrategy::kAvx2, PopcountStrategy::kAuto),
    [](const auto& info) { return PopcountStrategyName(info.param); });

TEST(PopcountDispatchTest, AutoResolvesToConcreteStrategy) {
  const PopcountStrategy s = ResolvePopcountStrategy(PopcountStrategy::kAuto);
  EXPECT_NE(s, PopcountStrategy::kAuto);
  EXPECT_TRUE(PopcountStrategyAvailable(s));
}

TEST(PopcountDispatchTest, AutoIsAvx2ElseSwar) {
  EXPECT_EQ(ResolvePopcountStrategy(PopcountStrategy::kAuto),
            PopcountStrategyAvailable(PopcountStrategy::kAvx2)
                ? PopcountStrategy::kAvx2
                : PopcountStrategy::kSwar);
}

TEST(PopcountDispatchTest, ConcreteStrategiesResolveToThemselves) {
  EXPECT_EQ(ResolvePopcountStrategy(PopcountStrategy::kLut16),
            PopcountStrategy::kLut16);
  EXPECT_EQ(ResolvePopcountStrategy(PopcountStrategy::kSwar),
            PopcountStrategy::kSwar);
}

TEST(PopcountDispatchTest, NamesAreStable) {
  EXPECT_STREQ(PopcountStrategyName(PopcountStrategy::kLut16), "lut16");
  EXPECT_STREQ(PopcountStrategyName(PopcountStrategy::kAvx2), "avx2");
  EXPECT_STREQ(PopcountStrategyName(PopcountStrategy::kAuto), "auto");
}

}  // namespace
}  // namespace fpm
