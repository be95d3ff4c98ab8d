#include "fpm/bitvec/tidlist.h"

#include <gtest/gtest.h>

namespace fpm {
namespace {

Database MakeDb(std::initializer_list<std::initializer_list<Item>> txs) {
  DatabaseBuilder b;
  for (const auto& tx : txs) b.AddTransaction(tx);
  return b.Build();
}

TEST(TidListDatabaseTest, ListsMatchOccurrences) {
  Database db = MakeDb({{0, 2}, {1}, {0, 1, 2}});
  TidListDatabase t = TidListDatabase::FromDatabase(db, db.num_items());
  EXPECT_EQ(t.num_items(), 3u);
  ASSERT_EQ(t.list(0).size(), 2u);
  EXPECT_EQ(t.list(0)[0], 0u);
  EXPECT_EQ(t.list(0)[1], 2u);
  ASSERT_EQ(t.list(1).size(), 2u);
  EXPECT_EQ(t.list(1)[0], 1u);
  EXPECT_EQ(t.list(2).size(), 2u);
}

TEST(TidListDatabaseTest, ListsAreSorted) {
  Database db = MakeDb({{5}, {5, 1}, {5}, {1}, {5, 1}});
  TidListDatabase t = TidListDatabase::FromDatabase(db, db.num_items());
  for (Item i = 0; i < t.num_items(); ++i) {
    auto list = t.list(i);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end())) << "item " << i;
  }
}

TEST(TidListDatabaseTest, ItemBoundLimitsLists) {
  Database db = MakeDb({{0, 5}, {5}});
  TidListDatabase t = TidListDatabase::FromDatabase(db, 2);
  EXPECT_EQ(t.num_items(), 2u);
  EXPECT_EQ(t.list(0).size(), 1u);
  EXPECT_EQ(t.list(1).size(), 0u);
}

TEST(TidListDatabaseTest, WeightedSupports) {
  DatabaseBuilder b;
  b.AddTransaction({0, 1}, 4);
  b.AddTransaction({0}, 3);
  Database db = b.Build();
  TidListDatabase t = TidListDatabase::FromDatabase(db, 2);
  EXPECT_EQ(t.weights(), (std::vector<Support>{4, 3}));
  EXPECT_EQ(t.list(0).size(), 2u);  // no row expansion
}

TEST(IntersectTidListsTest, BasicMerge) {
  const std::vector<Tid> a = {0, 2, 4, 6, 9};
  const std::vector<Tid> b = {1, 2, 3, 6, 7, 9};
  const std::vector<Support> weights = {1, 1, 1, 1, 1, 1, 1, 1, 1, 5};
  std::vector<Tid> out(5);
  Support support = 0;
  const size_t n =
      IntersectTidLists(a, b, weights.data(), out.data(), &support);
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(out[1], 6u);
  EXPECT_EQ(out[2], 9u);
  EXPECT_EQ(support, 7u);  // 1 + 1 + 5
}

TEST(IntersectTidListsTest, DisjointAndEmpty) {
  const std::vector<Tid> a = {0, 2};
  const std::vector<Tid> b = {1, 3};
  const std::vector<Support> weights = {1, 1, 1, 1};
  std::vector<Tid> out(2);
  Support support = 99;
  EXPECT_EQ(IntersectTidLists(a, b, weights.data(), out.data(), &support),
            0u);
  EXPECT_EQ(support, 0u);
  EXPECT_EQ(IntersectTidLists({}, b, weights.data(), out.data(), &support),
            0u);
}

TEST(IntersectTidListsTest, SelfIntersectionIsIdentity) {
  const std::vector<Tid> a = {3, 5, 8};
  const std::vector<Support> weights(9, 2);
  std::vector<Tid> out(3);
  Support support = 0;
  const size_t n =
      IntersectTidLists(a, a, weights.data(), out.data(), &support);
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(support, 6u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), out.begin()));
}

TEST(TidListDatabaseTest, EmptyDatabase) {
  TidListDatabase t = TidListDatabase::FromDatabase(Database(), 0);
  EXPECT_EQ(t.num_items(), 0u);
  EXPECT_EQ(t.num_transactions(), 0u);
}

}  // namespace
}  // namespace fpm
