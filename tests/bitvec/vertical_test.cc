#include "fpm/bitvec/vertical.h"

#include <gtest/gtest.h>

#include "fpm/bitvec/popcount.h"

namespace fpm {
namespace {

Database MakeDb(std::initializer_list<std::initializer_list<Item>> txs) {
  DatabaseBuilder b;
  for (const auto& tx : txs) b.AddTransaction(tx);
  return b.Build();
}

TEST(VerticalTest, ColumnsMatchOccurrences) {
  Database db = MakeDb({{0, 2}, {1}, {0, 1, 2}});
  VerticalDatabase v = VerticalDatabase::FromDatabase(db);
  EXPECT_EQ(v.num_items(), 3u);
  EXPECT_EQ(v.num_transactions(), 3u);
  EXPECT_TRUE(v.column(0).Test(0));
  EXPECT_FALSE(v.column(0).Test(1));
  EXPECT_TRUE(v.column(0).Test(2));
  EXPECT_FALSE(v.column(1).Test(0));
  EXPECT_TRUE(v.column(1).Test(1));
  EXPECT_TRUE(v.column(2).Test(2));
}

TEST(VerticalTest, PopcountsEqualFrequencies) {
  Database db = MakeDb({{0, 1}, {1, 2}, {1}, {2}});
  VerticalDatabase v = VerticalDatabase::FromDatabase(db);
  const auto& freq = db.item_frequencies();
  for (Item i = 0; i < v.num_items(); ++i) {
    EXPECT_EQ(CountOnes(v.column(i).words(), v.words_per_column(),
                        PopcountStrategy::kSwar),
              freq[i])
        << "item " << i;
  }
}

TEST(VerticalTest, WeightedTransactionsExpand) {
  DatabaseBuilder b;
  b.AddTransaction({0}, 3);
  b.AddTransaction({0, 1}, 2);
  Database db = b.Build();
  VerticalDatabase v = VerticalDatabase::FromDatabase(db);
  EXPECT_EQ(v.num_transactions(), 5u);
  EXPECT_EQ(CountOnes(v.column(0).words(), v.words_per_column(),
                      PopcountStrategy::kSwar),
            5u);
  EXPECT_EQ(CountOnes(v.column(1).words(), v.words_per_column(),
                      PopcountStrategy::kSwar),
            2u);
}

TEST(VerticalTest, OneRangesAreTight) {
  DatabaseBuilder b;
  for (int i = 0; i < 100; ++i) b.AddTransaction({0});
  b.AddTransaction({1});
  for (int i = 0; i < 100; ++i) b.AddTransaction({0});
  Database db = b.Build();
  VerticalDatabase v = VerticalDatabase::FromDatabase(db);
  // Item 1 occurs only at row 100 -> word 1.
  EXPECT_EQ(v.one_range(1).begin, 1u);
  EXPECT_EQ(v.one_range(1).end, 2u);
  // Item 0 spans everything.
  EXPECT_EQ(v.one_range(0).begin, 0u);
  EXPECT_EQ(v.one_range(0).end, v.words_per_column());
}

TEST(VerticalTest, AbsentItemHasEmptyRange) {
  Database db = MakeDb({{0, 2}});  // item 1 never occurs
  VerticalDatabase v = VerticalDatabase::FromDatabase(db);
  EXPECT_TRUE(v.one_range(1).empty());
}

TEST(VerticalTest, EmptyDatabase) {
  VerticalDatabase v = VerticalDatabase::FromDatabase(Database());
  EXPECT_EQ(v.num_items(), 0u);
  EXPECT_EQ(v.num_transactions(), 0u);
  EXPECT_EQ(v.words_per_column(), 0u);
}

}  // namespace
}  // namespace fpm
