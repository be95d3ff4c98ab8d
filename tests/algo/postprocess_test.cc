#include "fpm/algo/postprocess.h"

#include <gtest/gtest.h>

#include "fpm/algo/bruteforce.h"
#include "fpm/algo/lcm/lcm_miner.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::MakeDb;
using testutil::MineClosed;
using testutil::MineMaximal;
using testutil::RandomDb;
using testutil::RandomDbSpec;

using Entry = CollectingSink::Entry;

// Oracle definitions straight from the text: closed = no proper superset
// with equal support; maximal = no proper superset at all.
bool IsSubset(const Itemset& small, const Itemset& big) {
  return small.size() < big.size() &&
         std::includes(big.begin(), big.end(), small.begin(), small.end());
}

std::vector<Entry> OracleClosed(const std::vector<Entry>& all) {
  std::vector<Entry> out;
  for (const auto& p : all) {
    bool closed = true;
    for (const auto& q : all) {
      if (q.second == p.second && IsSubset(p.first, q.first)) {
        closed = false;
        break;
      }
    }
    if (closed) out.push_back(p);
  }
  return out;
}

std::vector<Entry> OracleMaximal(const std::vector<Entry>& all) {
  std::vector<Entry> out;
  for (const auto& p : all) {
    bool maximal = true;
    for (const auto& q : all) {
      if (IsSubset(p.first, q.first)) {
        maximal = false;
        break;
      }
    }
    if (maximal) out.push_back(p);
  }
  return out;
}

TEST(FilterClosedTest, TextbookExample) {
  // {a,b} x3, {a} x1: frequent at 1: {a}:4 {b}:3 {a,b}:3.
  // Closed: {a}:4 and {a,b}:3 ({b} has superset {a,b} with equal supp).
  Database db = MakeDb({{0, 1}, {0, 1}, {0, 1}, {0}});
  BruteForceMiner miner;
  const auto closed = MineClosed(miner, db, 1);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0], (Entry{{0}, 4}));
  EXPECT_EQ(closed[1], (Entry{{0, 1}, 3}));
}

TEST(FilterMaximalTest, TextbookExample) {
  Database db = MakeDb({{0, 1}, {0, 1}, {0, 1}, {0}, {2}});
  BruteForceMiner miner;
  const auto maximal = MineMaximal(miner, db, 1);
  // Maximal: {0,1} and {2}.
  ASSERT_EQ(maximal.size(), 2u);
  EXPECT_EQ(maximal[0], (Entry{{0, 1}, 3}));
  EXPECT_EQ(maximal[1], (Entry{{2}, 1}));
}

TEST(FilterTest, MaximalIsSubsetOfClosed) {
  // Every maximal itemset is closed (standard containment).
  RandomDbSpec spec;
  spec.num_transactions = 60;
  spec.num_items = 8;
  spec.seed = 77;
  Database db = RandomDb(spec);
  LcmMiner miner;
  const auto closed = MineClosed(miner, db, 3);
  const auto maximal = MineMaximal(miner, db, 3);
  for (const auto& m : maximal) {
    EXPECT_NE(std::find(closed.begin(), closed.end(), m), closed.end());
  }
  EXPECT_LE(maximal.size(), closed.size());
}

TEST(FilterTest, MatchesOracleOnRandomDbs) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RandomDbSpec spec;
    spec.num_transactions = 50;
    spec.num_items = 7;
    spec.seed = seed;
    Database db = RandomDb(spec);
    LcmMiner miner;
    CollectingSink sink;
    ASSERT_TRUE(miner.Mine(db, 3, &sink).ok());
    sink.Canonicalize();
    const auto& all = sink.results();
    EXPECT_EQ(FilterClosed(all), OracleClosed(all)) << "seed " << seed;
    EXPECT_EQ(FilterMaximal(all), OracleMaximal(all)) << "seed " << seed;
  }
}

TEST(FilterTest, ClosedPreservesSupportsAndUniqueness) {
  RandomDbSpec spec;
  spec.num_transactions = 80;
  spec.num_items = 9;
  spec.seed = 3;
  Database db = RandomDb(spec);
  LcmMiner miner;
  const auto closed = MineClosed(miner, db, 4);
  // Closed sets must be unique and still sorted canonically.
  for (size_t i = 1; i < closed.size(); ++i) {
    EXPECT_LT(closed[i - 1].first, closed[i].first);
  }
}

TEST(FilterTest, EmptyInput) {
  EXPECT_TRUE(FilterClosed({}).empty());
  EXPECT_TRUE(FilterMaximal({}).empty());
  EXPECT_TRUE(FilterMaximalFromClosed({}).empty());
}

TEST(FilterMaximalFromClosedTest, MatchesFullFilterOnRandomDbs) {
  // Maximal-from-closed must equal maximal-from-all-frequent.
  for (uint64_t seed = 11; seed <= 15; ++seed) {
    RandomDbSpec spec;
    spec.num_transactions = 55;
    spec.num_items = 8;
    spec.seed = seed;
    Database db = RandomDb(spec);
    LcmMiner miner;
    CollectingSink sink;
    ASSERT_TRUE(miner.Mine(db, 3, &sink).ok());
    sink.Canonicalize();
    const auto closed = FilterClosed(sink.results());
    EXPECT_EQ(FilterMaximalFromClosed(closed),
              FilterMaximal(sink.results()))
        << "seed " << seed;
  }
}

TEST(FilterMaximalFromClosedTest, DetectsMultiSizeJumps) {
  // {0} closed with a closed superset three items larger and nothing in
  // between: the one-larger trick of FilterMaximal would miss it, the
  // closed-listing variant must not.
  const std::vector<Entry> closed = {{{0}, 10}, {{0, 1, 2, 3}, 5}};
  const auto maximal = FilterMaximalFromClosed(closed);
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0], (Entry{{0, 1, 2, 3}, 5}));
}

TEST(FilterTest, SingleItemsetIsClosedAndMaximal) {
  const std::vector<Entry> one = {{{3}, 5}};
  EXPECT_EQ(FilterClosed(one), one);
  EXPECT_EQ(FilterMaximal(one), one);
}

}  // namespace
}  // namespace fpm
