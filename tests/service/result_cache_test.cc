#include "fpm/service/result_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

namespace fpm {
namespace {

ResultCacheKey Key(const std::string& digest, Support minsup,
                   Algorithm algorithm = Algorithm::kLcm) {
  ResultCacheKey key;
  key.digest = digest;
  key.algorithm = algorithm;
  key.pattern_bits = 0;
  key.min_support = minsup;
  return key;
}

std::shared_ptr<const CachedResult> MakeResult(
    std::vector<CollectingSink::Entry> itemsets) {
  auto result = std::make_shared<CachedResult>();
  result->num_results = itemsets.size();
  result->bytes = ResultCache::EstimateBytes(itemsets);
  result->itemsets = std::move(itemsets);
  return result;
}

TEST(SupportsDominanceReuseTest, OnlyOrderStableKernelsQualify) {
  EXPECT_TRUE(SupportsDominanceReuse(Algorithm::kLcm));
  EXPECT_TRUE(SupportsDominanceReuse(Algorithm::kEclat));
  // FP-Growth's single-path shortcut makes emission order depend on the
  // threshold; the reference miners were never audited for it.
  EXPECT_FALSE(SupportsDominanceReuse(Algorithm::kFpGrowth));
  EXPECT_FALSE(SupportsDominanceReuse(Algorithm::kApriori));
  EXPECT_FALSE(SupportsDominanceReuse(Algorithm::kHMine));
  EXPECT_FALSE(SupportsDominanceReuse(Algorithm::kBruteForce));
}

TEST(ResultCacheTest, ExactHitReturnsTheStoredResult) {
  ResultCache cache;
  auto stored = MakeResult({{{1}, 5}, {{2}, 4}, {{1, 2}, 3}});
  cache.Insert(Key("d", 3), stored);

  ResultCacheLookup hit = cache.Lookup(Key("d", 3));
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.exact);
  EXPECT_FALSE(hit.dominated);
  EXPECT_EQ(hit.result.get(), stored.get());

  EXPECT_EQ(cache.Lookup(Key("other", 3)).result, nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCacheTest, DominanceFilterPreservesOrder) {
  ResultCache cache;
  // Emission order deliberately not sorted by support: the filtered
  // answer must keep relative order, only dropping entries below the
  // queried threshold.
  cache.Insert(Key("d", 2),
               MakeResult({{{1}, 5}, {{1, 2}, 2}, {{2}, 4}, {{3}, 3}}));

  ResultCacheLookup hit = cache.Lookup(Key("d", 3));
  ASSERT_NE(hit.result, nullptr);
  EXPECT_FALSE(hit.exact);
  EXPECT_TRUE(hit.dominated);
  const std::vector<CollectingSink::Entry> expected = {
      {{1}, 5}, {{2}, 4}, {{3}, 3}};
  EXPECT_EQ(hit.result->itemsets, expected);
  EXPECT_EQ(hit.result->num_results, 3u);
  EXPECT_EQ(cache.stats().dominated_hits, 1u);

  // The derived answer is memoized: the same query now hits exactly.
  ResultCacheLookup second = cache.Lookup(Key("d", 3));
  EXPECT_TRUE(second.exact);
  EXPECT_EQ(second.result->itemsets, expected);
}

TEST(ResultCacheTest, DominanceRequiresSameConfiguration) {
  ResultCache cache;
  cache.Insert(Key("d", 2, Algorithm::kLcm), MakeResult({{{1}, 5}}));
  // Different algorithm, different digest, or *lower* threshold than
  // the cached run: no dominance answer.
  EXPECT_EQ(cache.Lookup(Key("d", 3, Algorithm::kEclat)).result, nullptr);
  EXPECT_EQ(cache.Lookup(Key("e", 3, Algorithm::kLcm)).result, nullptr);
  EXPECT_EQ(cache.Lookup(Key("d", 1, Algorithm::kLcm)).result, nullptr);
}

TEST(ResultCacheTest, NonEligibleAlgorithmsGetExactHitsOnly) {
  ResultCache cache;
  cache.Insert(Key("d", 2, Algorithm::kFpGrowth), MakeResult({{{1}, 5}}));
  EXPECT_EQ(cache.Lookup(Key("d", 3, Algorithm::kFpGrowth)).result, nullptr);
  ResultCacheLookup exact = cache.Lookup(Key("d", 2, Algorithm::kFpGrowth));
  ASSERT_NE(exact.result, nullptr);
  EXPECT_TRUE(exact.exact);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedFirst) {
  // Three equally sized entries; budget fits roughly two. Touch A so B
  // becomes the LRU victim when D arrives.
  auto a = MakeResult({{{1, 2, 3}, 5}});
  const size_t entry_bytes = a->bytes;
  ResultCache cache(/*budget_bytes=*/2 * entry_bytes + entry_bytes / 2);
  cache.Insert(Key("a", 2), a);
  cache.Insert(Key("b", 2), MakeResult({{{4, 5, 6}, 5}}));
  EXPECT_EQ(cache.stats().resident_entries, 2u);

  ASSERT_TRUE(cache.Lookup(Key("a", 2)).exact);  // refresh A
  cache.Insert(Key("d", 2), MakeResult({{{7, 8, 9}, 5}}));

  EXPECT_TRUE(cache.Lookup(Key("a", 2)).exact);
  EXPECT_TRUE(cache.Lookup(Key("d", 2)).exact);
  EXPECT_EQ(cache.Lookup(Key("b", 2)).result, nullptr);  // evicted
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, KeepsAtLeastOneEntryUnderTinyBudget) {
  ResultCache cache(/*budget_bytes=*/1);
  cache.Insert(Key("a", 2), MakeResult({{{1}, 3}}));
  EXPECT_EQ(cache.stats().resident_entries, 1u);
  EXPECT_TRUE(cache.Lookup(Key("a", 2)).exact);
  cache.Insert(Key("b", 2), MakeResult({{{2}, 3}}));
  // The newcomer displaced the old entry but itself stays resident.
  EXPECT_EQ(cache.stats().resident_entries, 1u);
  EXPECT_TRUE(cache.Lookup(Key("b", 2)).exact);
}

TEST(ResultCacheTest, BytesTrackInsertionsAndEvictions) {
  auto a = MakeResult({{{1, 2}, 4}});
  auto b = MakeResult({{{3, 4}, 4}});
  ResultCache cache;
  cache.Insert(Key("a", 2), a);
  cache.Insert(Key("b", 2), b);
  EXPECT_EQ(cache.stats().resident_bytes, a->bytes + b->bytes);
  EXPECT_EQ(cache.stats().insertions, 2u);
}

// ---- cross-task dominance ------------------------------------------------

ResultCacheKey TaskKey(const std::string& digest, const MiningQuery& query,
                       Algorithm algorithm = Algorithm::kLcm) {
  return ResultCacheKey::ForQuery(digest, algorithm, /*pattern_bits=*/0,
                                  query);
}

/// The shared fixture listing: a frequent run at threshold 2. {2} has a
/// superset of equal support ({1,2}), so it is frequent but not closed.
std::shared_ptr<const CachedResult> FrequentFixture() {
  return MakeResult({{{1}, 5}, {{1, 2}, 4}, {{2}, 4}, {{3}, 2}});
}

TEST(ResultCacheCrossTaskTest, ClosedDerivesFromCachedFrequent) {
  ResultCache cache;
  cache.Insert(Key("d", 2), FrequentFixture());

  ResultCacheLookup hit =
      cache.Lookup(TaskKey("d", MiningQuery::Closed(3)));
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.cross_task);
  EXPECT_FALSE(hit.exact);
  const std::vector<CollectingSink::Entry> expected = {{{1}, 5},
                                                       {{1, 2}, 4}};
  EXPECT_EQ(hit.result->itemsets, expected);
  EXPECT_EQ(cache.stats().cross_task_hits, 1u);

  // Memoized under the closed key: asking again is an exact hit.
  ResultCacheLookup again =
      cache.Lookup(TaskKey("d", MiningQuery::Closed(3)));
  EXPECT_TRUE(again.exact);
  EXPECT_EQ(again.result->itemsets, expected);
}

TEST(ResultCacheCrossTaskTest, MaximalDerivesFromCachedFrequent) {
  ResultCache cache;
  cache.Insert(Key("d", 2), FrequentFixture());
  ResultCacheLookup hit =
      cache.Lookup(TaskKey("d", MiningQuery::Maximal(3)));
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.cross_task);
  const std::vector<CollectingSink::Entry> expected = {{{1, 2}, 4}};
  EXPECT_EQ(hit.result->itemsets, expected);
}

TEST(ResultCacheCrossTaskTest, MaximalNeverDerivesFromMaximal) {
  ResultCache cache;
  // A maximal listing at threshold 2 — itemsets maximal there need not
  // be maximal at 3, so the cache must not filter it.
  cache.Insert(TaskKey("d", MiningQuery::Maximal(2)),
               MakeResult({{{1, 2}, 4}, {{3}, 2}}));
  EXPECT_EQ(cache.Lookup(TaskKey("d", MiningQuery::Maximal(3))).result,
            nullptr);
}

TEST(ResultCacheCrossTaskTest, TopKDerivesFromFrequentAtOrBelowFloor) {
  ResultCache cache;
  cache.Insert(Key("d", 2), FrequentFixture());
  ResultCacheLookup hit =
      cache.Lookup(TaskKey("d", MiningQuery::TopK(2, /*floor=*/2)));
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.cross_task);
  // Rank order: support descending, itemset ascending on ties —
  // {1,2} precedes {2} at support 4.
  const std::vector<CollectingSink::Entry> expected = {{{1}, 5},
                                                       {{1, 2}, 4}};
  EXPECT_EQ(hit.result->itemsets, expected);
}

TEST(ResultCacheCrossTaskTest, TopKAboveFloorNeedsKCachedEntries) {
  ResultCache cache;
  // Cached above the queried floor: valid only because the listing
  // already holds >= k entries (anything it misses supports < 3).
  cache.Insert(Key("d", 3), MakeResult({{{1}, 5}, {{1, 2}, 4}, {{2}, 4}}));
  ResultCacheLookup hit =
      cache.Lookup(TaskKey("d", MiningQuery::TopK(2, /*floor=*/1)));
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.cross_task);
  const std::vector<CollectingSink::Entry> expected = {{{1}, 5},
                                                       {{1, 2}, 4}};
  EXPECT_EQ(hit.result->itemsets, expected);

  // k larger than the cached listing: the tail below the cached
  // threshold is unknown, so the cache must decline.
  EXPECT_EQ(cache.Lookup(TaskKey("d", MiningQuery::TopK(4, /*floor=*/1)))
                .result,
            nullptr);
}

TEST(ResultCacheCrossTaskTest, RulesFilterByDominanceWithinRules) {
  ResultCache cache;
  auto stored = std::make_shared<CachedResult>();
  AssociationRule strong;
  strong.antecedent = {1};
  strong.consequent = {2};
  strong.itemset_support = 5;
  AssociationRule weak;
  weak.antecedent = {2};
  weak.consequent = {3};
  weak.itemset_support = 3;
  stored->rules = {strong, weak};
  stored->num_results = 2;
  stored->bytes = ResultCache::EstimateResultBytes(*stored);
  cache.Insert(TaskKey("d", MiningQuery::Rules(2, 0.5)), stored);

  ResultCacheLookup hit =
      cache.Lookup(TaskKey("d", MiningQuery::Rules(4, 0.5)));
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.dominated);
  ASSERT_EQ(hit.result->rules.size(), 1u);
  EXPECT_EQ(hit.result->rules[0].itemset_support, 5u);

  // A different confidence is a different configuration — no reuse
  // within rules (it would change which rules exist).
  EXPECT_EQ(cache.Lookup(TaskKey("d", MiningQuery::Rules(4, 0.9))).result,
            nullptr);
}

TEST(ResultCacheCrossTaskTest, RulesDeriveFromCachedClosedListing) {
  ResultCache cache;
  auto closed = std::make_shared<CachedResult>();
  closed->itemsets = {{{1}, 4}, {{1, 2}, 2}, {{2}, 3}};
  closed->num_results = 3;
  closed->total_weight = 6;  // rule derivation needs the base weight
  closed->bytes = ResultCache::EstimateResultBytes(*closed);
  cache.Insert(TaskKey("d", MiningQuery::Closed(2)), closed);

  ResultCacheLookup hit =
      cache.Lookup(TaskKey("d", MiningQuery::Rules(2, 0.5)));
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.cross_task);
  // {1,2} yields 1=>2 (conf 0.5) and 2=>1 (conf 2/3); both lift 1.
  ASSERT_EQ(hit.result->rules.size(), 2u);
  EXPECT_EQ(hit.result->rules[0].antecedent, Itemset{2});
  EXPECT_EQ(hit.result->rules[1].antecedent, Itemset{1});
}

TEST(ResultCacheCrossTaskTest, CrossTaskIgnoresTheFrequentOrderGate) {
  // FP-Growth frequent results cannot answer FREQUENT dominance queries
  // (emission order shifts with the threshold) but CAN answer CLOSED:
  // the derived listing is canonicalized, so order does not matter.
  ResultCache cache;
  cache.Insert(Key("d", 2, Algorithm::kFpGrowth), FrequentFixture());
  ResultCacheLookup hit = cache.Lookup(
      TaskKey("d", MiningQuery::Closed(3), Algorithm::kFpGrowth));
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.cross_task);
}

// A derivation runs with the cache's lock released: while one is held
// in flight, an exact hit on another key and stats() both answer. (Both
// used to wait out the whole derivation: seconds on a large listing.)
TEST(ResultCacheCrossTaskTest, DerivationLeavesTheCacheServing) {
  ResultCache cache;
  cache.Insert(Key("d", 2), FrequentFixture());
  const auto other = MakeResult({{{7}, 9}});
  cache.Insert(Key("e", 2), other);

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  cache.set_derive_hook_for_test([&entered, released] {
    entered.set_value();
    released.wait();
  });
  ResultCacheLookup derived;
  std::thread deriving([&cache, &derived] {
    derived = cache.Lookup(TaskKey("d", MiningQuery::Closed(3)));
  });
  entered.get_future().wait();

  const auto exact_hit = [&cache] { return cache.Lookup(Key("e", 2)); };
  const auto read_stats = [&cache] { return cache.stats(); };
  auto exact = std::async(std::launch::async, exact_hit);
  auto stats = std::async(std::launch::async, read_stats);
  const bool exact_answered =
      exact.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  const bool stats_answered =
      stats.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  deriving.join();

  EXPECT_TRUE(exact_answered);
  EXPECT_TRUE(stats_answered);
  const ResultCacheLookup hit = exact.get();
  EXPECT_TRUE(hit.exact);
  EXPECT_EQ(hit.result.get(), other.get());
  const ResultCacheStats during = stats.get();
  EXPECT_EQ(during.cross_task_hits, 0u);
  EXPECT_EQ(during.resident_entries, 2u);

  // The paused derivation finishes as it would have, and is memoized.
  ASSERT_NE(derived.result, nullptr);
  EXPECT_TRUE(derived.cross_task);
  const std::vector<CollectingSink::Entry> expected = {{{1}, 5},
                                                       {{1, 2}, 4}};
  EXPECT_EQ(derived.result->itemsets, expected);
  EXPECT_EQ(cache.stats().cross_task_hits, 1u);
  EXPECT_TRUE(cache.Lookup(TaskKey("d", MiningQuery::Closed(3))).exact);
}

TEST(ResultCacheKeyTest, ForQueryZeroesIrrelevantParameters) {
  MiningQuery frequent = MiningQuery::Frequent(3);
  frequent.k = 99;              // noise a caller might leave behind
  frequent.min_confidence = 0.9;
  const ResultCacheKey key = TaskKey("d", frequent);
  EXPECT_EQ(key.k, 0u);
  EXPECT_EQ(key.min_confidence, 0.0);
  EXPECT_EQ(key.max_consequent, 0u);

  MiningQuery topk = MiningQuery::TopK(7, 2);
  topk.min_confidence = 0.9;
  const ResultCacheKey tk = TaskKey("d", topk);
  EXPECT_EQ(tk.k, 7u);
  EXPECT_EQ(tk.min_confidence, 0.0);
}

}  // namespace
}  // namespace fpm
