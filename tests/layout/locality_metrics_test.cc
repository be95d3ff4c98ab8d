#include "testing/locality_metrics.h"

#include <gtest/gtest.h>

#include "fpm/dataset/quest_gen.h"
#include "fpm/layout/lexicographic.h"

namespace fpm {
namespace {

using testutil::FrequencyWeightedDiscontinuities;
using testutil::ItemRunCounts;
using testutil::TotalDiscontinuities;

Database MakeDb(std::initializer_list<std::initializer_list<Item>> txs) {
  DatabaseBuilder b;
  for (const auto& tx : txs) b.AddTransaction(tx);
  return b.Build();
}

TEST(RunCountsTest, ContiguousItemHasOneRun) {
  Database db = MakeDb({{0}, {0}, {0}, {1}});
  auto runs = ItemRunCounts(db);
  EXPECT_EQ(runs[0], 1u);
  EXPECT_EQ(runs[1], 1u);
}

TEST(RunCountsTest, ScatteredItemHasManyRuns) {
  Database db = MakeDb({{0}, {1}, {0}, {1}, {0}});
  auto runs = ItemRunCounts(db);
  EXPECT_EQ(runs[0], 3u);
  EXPECT_EQ(runs[1], 2u);
}

TEST(RunCountsTest, AbsentItemHasZeroRuns) {
  Database db = MakeDb({{0, 2}});
  auto runs = ItemRunCounts(db);
  EXPECT_EQ(runs[1], 0u);
}

TEST(DiscontinuityTest, PerfectLayoutHasZero) {
  Database db = MakeDb({{0}, {0}, {1}, {1}});
  EXPECT_EQ(TotalDiscontinuities(db), 0u);
}

TEST(DiscontinuityTest, CountsBreaks) {
  // item 0: rows 0,2 -> 2 runs -> 1 discontinuity.
  // item 1: rows 1,3 -> 2 runs -> 1 discontinuity.
  Database db = MakeDb({{0}, {1}, {0}, {1}});
  EXPECT_EQ(TotalDiscontinuities(db), 2u);
}

TEST(DiscontinuityTest, FrequencyWeightingScalesWithFrequency) {
  // Item 0 occurs 4x with 3 runs; item 1 occurs 2x with 2 runs.
  Database db = MakeDb({{0}, {1}, {0}, {1}, {0}, {0}});
  // weighted = (3-1)*4 + (2-1)*2 = 10
  EXPECT_DOUBLE_EQ(FrequencyWeightedDiscontinuities(db), 10.0);
}

TEST(DiscontinuityTest, LexOrderingReducesDiscontinuities) {
  auto dbr = GenerateQuest([] {
    QuestParams p;
    p.num_transactions = 3000;
    p.avg_transaction_len = 10;
    p.avg_pattern_len = 4;
    p.num_items = 200;
    p.num_patterns = 80;
    return p;
  }());
  ASSERT_TRUE(dbr.ok());
  const uint64_t before = TotalDiscontinuities(dbr.value());
  LexicographicResult lex = LexicographicOrder(dbr.value());
  const uint64_t after = TotalDiscontinuities(lex.database);
  EXPECT_LT(after, before)
      << "paper §3.2: lex ordering reduces total discontinuities";
}

TEST(DiscontinuityTest, MostFrequentItemContiguousAfterLex) {
  auto dbr = GenerateQuest([] {
    QuestParams p;
    p.num_transactions = 1000;
    p.avg_transaction_len = 8;
    p.avg_pattern_len = 3;
    p.num_items = 100;
    p.num_patterns = 40;
    return p;
  }());
  ASSERT_TRUE(dbr.ok());
  LexicographicResult lex = LexicographicOrder(dbr.value());
  auto runs = ItemRunCounts(lex.database);
  // Paper §3.2: "in the lexicographic layout all transactions on the most
  // frequent item are contiguous" — rank 0 must have exactly one run.
  ASSERT_GT(runs.size(), 0u);
  EXPECT_EQ(runs[0], 1u);
  // "transactions on the second most frequent item have at most one
  // discontinuity": rank 1 has at most 2 runs.
  if (runs.size() > 1 && runs[1] > 0) {
    EXPECT_LE(runs[1], 2u);
  }
}

}  // namespace
}  // namespace fpm
