#include "fpm/algo/candidate_trie.h"

#include <gtest/gtest.h>

#include "fpm/common/rng.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

TEST(CandidateTrieTest, CountsSubsetsOnly) {
  CandidateTrie trie;
  const Item c0[] = {1, 2};
  const Item c1[] = {2, 3};
  const Item c2[] = {1, 2, 3};
  trie.Insert(c0, 0);
  trie.Insert(c1, 1);
  trie.Insert(c2, 2);
  std::vector<Support> counts(3, 0);
  const Item tx[] = {1, 2, 3};
  trie.CountTransaction(tx, 2, &counts);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  const Item tx2[] = {1, 2};
  trie.CountTransaction(tx2, 1, &counts);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
}

TEST(CandidateTrieTest, MixedSizeCandidatesOnSharedPrefix) {
  // {1} and {1,5}: a candidate node that is also an interior node.
  CandidateTrie trie;
  const Item c0[] = {1};
  const Item c1[] = {1, 5};
  trie.Insert(c0, 0);
  trie.Insert(c1, 1);
  std::vector<Support> counts(2, 0);
  const Item tx[] = {1, 5, 9};
  trie.CountTransaction(tx, 1, &counts);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  const Item tx2[] = {1, 9};
  trie.CountTransaction(tx2, 1, &counts);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(CandidateTrieTest, NonSubsetsNotCounted) {
  CandidateTrie trie;
  const Item c0[] = {2, 4};
  trie.Insert(c0, 0);
  std::vector<Support> counts(1, 0);
  const Item tx[] = {2, 3};
  trie.CountTransaction(tx, 1, &counts);
  const Item tx2[] = {4};
  trie.CountTransaction(tx2, 1, &counts);
  EXPECT_EQ(counts[0], 0u);
}

TEST(CandidateTrieTest, RandomizedAgainstNaiveChecker) {
  Rng rng(314);
  // Random candidates of sizes 1..4 over 12 items.
  std::vector<Itemset> candidates;
  for (int i = 0; i < 40; ++i) {
    Itemset c;
    const size_t len = 1 + rng.NextBounded(4);
    while (c.size() < len) {
      const Item it = static_cast<Item>(rng.NextBounded(12));
      if (std::find(c.begin(), c.end(), it) == c.end()) c.push_back(it);
    }
    std::sort(c.begin(), c.end());
    if (std::find(candidates.begin(), candidates.end(), c) ==
        candidates.end()) {
      candidates.push_back(c);
    }
  }
  CandidateTrie trie;
  for (size_t i = 0; i < candidates.size(); ++i) {
    trie.Insert(candidates[i], static_cast<uint32_t>(i));
  }
  std::vector<Support> counts(candidates.size(), 0);
  std::vector<Support> naive(candidates.size(), 0);
  for (int t = 0; t < 200; ++t) {
    Itemset tx;
    for (Item i = 0; i < 12; ++i) {
      if (rng.NextBool(0.4)) tx.push_back(i);
    }
    trie.CountTransaction(tx, 1, &counts);
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (std::includes(tx.begin(), tx.end(), candidates[c].begin(),
                        candidates[c].end())) {
        ++naive[c];
      }
    }
  }
  EXPECT_EQ(counts, naive);
}

TEST(CandidateTrieTest, InsertOrFindReturnsTheStoredIndex) {
  CandidateTrie trie;
  const Item c[] = {1, 2};
  const Item prefix[] = {1};
  EXPECT_EQ(trie.InsertOrFind(c, 0), 0u);
  EXPECT_EQ(trie.InsertOrFind(c, 1), 0u);  // duplicate: not re-inserted
  EXPECT_EQ(trie.InsertOrFind(prefix, 1), 1u);
  std::vector<Support> counts(2, 0);
  const Item tx[] = {1, 2};
  trie.CountTransaction(tx, 1, &counts);
  EXPECT_EQ(counts, (std::vector<Support>{1, 1}));
}

TEST(CountCandidatesTest, CountsUnsortedCandidates) {
  const Database db = testutil::MakeDb({{3, 1, 2}, {2, 1}, {2, 3}, {1}});
  const std::vector<Itemset> candidates = {{2, 1}, {3}, {1}};
  Result<std::vector<Support>> all = CountCandidates(db, candidates);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(*all, (std::vector<Support>{2, 2, 3}));
  Result<std::vector<Support>> none = CountCandidates(db, {});
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->empty());
}

TEST(CountCandidatesTest, EmptyCandidateError) {
  const Database db = testutil::MakeDb({{1}});
  Result<std::vector<Support>> bad =
      CountCandidates(db, std::vector<Itemset>{{1}, {}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "candidate 1 is empty");
}

TEST(CountCandidatesTest, DuplicateCandidateError) {
  // {2,1} is {1,2} once sorted: a duplicate comes back as an error, not
  // as the trie's insertion check.
  const Database db = testutil::MakeDb({{1, 2}});
  Result<std::vector<Support>> bad =
      CountCandidates(db, std::vector<Itemset>{{1, 2}, {2, 1}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "candidate 1 duplicates candidate 0");
}

TEST(CountCandidatesTest, RepeatedItemCandidateError) {
  const Database db = testutil::MakeDb({{1, 2}});
  Result<std::vector<Support>> bad =
      CountCandidates(db, std::vector<Itemset>{{2}, {1, 2, 1}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "candidate 1 repeats item 1");
}

TEST(CandidateTrieDeathTest, RejectsEmptyAndDuplicateCandidates) {
  CandidateTrie trie;
  EXPECT_DEATH(trie.Insert({}, 0), "empty");
  const Item c[] = {1, 2};
  trie.Insert(c, 0);
  EXPECT_DEATH(trie.Insert(c, 1), "duplicate");
}

}  // namespace
}  // namespace fpm
