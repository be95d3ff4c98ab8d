#include "fpm/core/patterns.h"

#include <gtest/gtest.h>

#include <bit>

namespace fpm {
namespace {

TEST(PatternInfoTest, RegistryMatchesTable2) {
  // Spot-check Table 2 rows.
  const PatternInfo& lex = GetPatternInfo(Pattern::kLexicographicOrdering);
  EXPECT_STREQ(lex.id, "P1");
  EXPECT_TRUE(lex.spatial_locality);
  EXPECT_FALSE(lex.computation);

  const PatternInfo& agg = GetPatternInfo(Pattern::kAggregation);
  EXPECT_TRUE(agg.spatial_locality);
  EXPECT_TRUE(agg.memory_latency);

  const PatternInfo& tile = GetPatternInfo(Pattern::kTiling);
  EXPECT_TRUE(tile.temporal_locality);
  EXPECT_FALSE(tile.spatial_locality);

  const PatternInfo& simd = GetPatternInfo(Pattern::kSimdization);
  EXPECT_TRUE(simd.computation);
  EXPECT_FALSE(simd.memory_latency);
}

TEST(PatternInfoTest, AllEightPresentInOrder) {
  const auto all = AllPatterns();
  ASSERT_EQ(all.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<int>(all[i].pattern), i);
    EXPECT_EQ(all[i].id, std::string("P").append(std::to_string(i + 1)));
  }
}

TEST(PatternSetTest, WithWithoutContains) {
  PatternSet s;
  EXPECT_TRUE(s.empty());
  s = s.With(Pattern::kTiling).With(Pattern::kSimdization);
  EXPECT_TRUE(s.Contains(Pattern::kTiling));
  EXPECT_TRUE(s.Contains(Pattern::kSimdization));
  EXPECT_FALSE(s.Contains(Pattern::kAggregation));
  EXPECT_EQ(std::popcount(s.bits()), 2);
  s = s.Without(Pattern::kTiling);
  EXPECT_FALSE(s.Contains(Pattern::kTiling));
  EXPECT_EQ(std::popcount(s.bits()), 1);
}

TEST(PatternSetTest, AllContainsEverything) {
  const PatternSet all = PatternSet::All();
  EXPECT_EQ(std::popcount(all.bits()), 8);
  for (const auto& info : AllPatterns()) {
    EXPECT_TRUE(all.Contains(info.pattern)) << info.id;
  }
}

TEST(PatternSetTest, SetAlgebra) {
  const PatternSet a =
      PatternSet().With(Pattern::kTiling).With(Pattern::kAggregation);
  const PatternSet b =
      PatternSet().With(Pattern::kTiling).With(Pattern::kSimdization);
  EXPECT_EQ(a.Intersect(b), PatternSet().With(Pattern::kTiling));
  EXPECT_EQ(std::popcount(a.Union(b).bits()), 3);
}

TEST(PatternSetTest, ToStringFormat) {
  EXPECT_EQ(PatternSet().ToString(), "none");
  EXPECT_EQ(PatternSet().With(Pattern::kLexicographicOrdering).ToString(),
            "P1");
  EXPECT_EQ(PatternSet()
                .With(Pattern::kLexicographicOrdering)
                .With(Pattern::kSoftwarePrefetch)
                .ToString(),
            "P1+P7");
}

TEST(PatternSetTest, ParseIdsNamesAliases) {
  auto r = PatternSet::Parse("P1,P8");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains(Pattern::kLexicographicOrdering));
  EXPECT_TRUE(r->Contains(Pattern::kSimdization));
  EXPECT_EQ(std::popcount(r->bits()), 2);

  r = PatternSet::Parse("lex + tile");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains(Pattern::kTiling));

  r = PatternSet::Parse("all");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::popcount(r->bits()), 8);

  r = PatternSet::Parse("none");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());

  r = PatternSet::Parse("");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(PatternSetTest, ParseRejectsUnknown) {
  EXPECT_FALSE(PatternSet::Parse("P9").ok());
  EXPECT_FALSE(PatternSet::Parse("lex,bogus").ok());
}

TEST(ApplicabilityTest, MatchesTable4) {
  const PatternSet lcm = PatternSet::ApplicableTo(Algorithm::kLcm);
  EXPECT_TRUE(lcm.Contains(Pattern::kLexicographicOrdering));
  EXPECT_TRUE(lcm.Contains(Pattern::kAggregation));
  EXPECT_TRUE(lcm.Contains(Pattern::kCompaction));
  EXPECT_TRUE(lcm.Contains(Pattern::kTiling));
  EXPECT_TRUE(lcm.Contains(Pattern::kSoftwarePrefetch));
  EXPECT_FALSE(lcm.Contains(Pattern::kSimdization));
  EXPECT_FALSE(lcm.Contains(Pattern::kDataStructureAdaptation));

  const PatternSet eclat = PatternSet::ApplicableTo(Algorithm::kEclat);
  EXPECT_EQ(std::popcount(eclat.bits()), 2);
  EXPECT_TRUE(eclat.Contains(Pattern::kLexicographicOrdering));
  EXPECT_TRUE(eclat.Contains(Pattern::kSimdization));

  const PatternSet fpg = PatternSet::ApplicableTo(Algorithm::kFpGrowth);
  EXPECT_TRUE(fpg.Contains(Pattern::kDataStructureAdaptation));
  EXPECT_TRUE(fpg.Contains(Pattern::kPrefetchPointers));
  EXPECT_FALSE(fpg.Contains(Pattern::kTiling));  // "()" in Table 4
  EXPECT_FALSE(fpg.Contains(Pattern::kSimdization));

  EXPECT_TRUE(PatternSet::ApplicableTo(Algorithm::kApriori).empty());
  EXPECT_TRUE(PatternSet::ApplicableTo(Algorithm::kBruteForce).empty());
}

TEST(AlgorithmTest, NamesRoundTrip) {
  for (Algorithm a : {Algorithm::kLcm, Algorithm::kEclat,
                      Algorithm::kFpGrowth, Algorithm::kApriori, Algorithm::kHMine,
                      Algorithm::kBruteForce}) {
    auto parsed = ParseAlgorithm(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), a);
  }
  EXPECT_TRUE(ParseAlgorithm("FP-Growth").ok());
  EXPECT_FALSE(ParseAlgorithm("quantum").ok());
}

TEST(AlgorithmInfoTest, MatchesTable3) {
  const AlgorithmInfo& lcm = GetAlgorithmInfo(Algorithm::kLcm);
  EXPECT_STREQ(lcm.database_type, "horizontal");
  EXPECT_STREQ(lcm.bound, "memory");
  const AlgorithmInfo& eclat = GetAlgorithmInfo(Algorithm::kEclat);
  EXPECT_STREQ(eclat.database_type, "vertical");
  EXPECT_STREQ(eclat.bound, "computation");
  const AlgorithmInfo& fpg = GetAlgorithmInfo(Algorithm::kFpGrowth);
  EXPECT_STREQ(fpg.data_structure, "tree");
}

}  // namespace
}  // namespace fpm
