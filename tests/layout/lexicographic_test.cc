#include "fpm/layout/lexicographic.h"

#include <gtest/gtest.h>

#include "fpm/dataset/quest_gen.h"
#include "fpm/dataset/stats.h"

namespace fpm {
namespace {

Database MakeDb(std::initializer_list<std::initializer_list<Item>> txs) {
  DatabaseBuilder b;
  for (const auto& tx : txs) b.AddTransaction(tx);
  return b.Build();
}

// Reproduces Table 1 of the paper exactly. Raw items a..f are 0..5.
// Input:  {a,c,f} {b,c,f} {a,c,f} {d,e} {a,b,c,d,e,f}
// Output alphabet (decreasing frequency): c,f,a,b,d,e
// Output: {c,f,a} {c,f,a} {c,f,a,b,d,e} {c,f,b} {d,e}
TEST(LexicographicTest, ReproducesPaperTable1) {
  constexpr Item a = 0, b = 1, c = 2, d = 3, e = 4, f = 5;
  Database db = MakeDb({{a, c, f}, {b, c, f}, {a, c, f}, {d, e},
                        {a, b, c, d, e, f}});
  LexicographicResult lex = LexicographicOrder(db);

  // Alphabet: c,f have freq 4; a 3; b 2; d,e 2. Decreasing frequency with
  // id tie-break: c,f,a,b,d,e.
  EXPECT_EQ(lex.item_order.ItemAt(0), c);
  EXPECT_EQ(lex.item_order.ItemAt(1), f);
  EXPECT_EQ(lex.item_order.ItemAt(2), a);
  EXPECT_EQ(lex.item_order.ItemAt(3), b);
  EXPECT_EQ(lex.item_order.ItemAt(4), d);
  EXPECT_EQ(lex.item_order.ItemAt(5), e);

  const Database& out = lex.database;
  ASSERT_EQ(out.num_transactions(), 5u);
  auto decode = [&](Tid t) {
    std::vector<Item> raw;
    for (Item r : out.transaction(t)) raw.push_back(lex.item_order.ItemAt(r));
    return raw;
  };
  EXPECT_EQ(decode(0), (std::vector<Item>{c, f, a}));
  EXPECT_EQ(decode(1), (std::vector<Item>{c, f, a}));
  EXPECT_EQ(decode(2), (std::vector<Item>{c, f, a, b, d, e}));
  EXPECT_EQ(decode(3), (std::vector<Item>{c, f, b}));
  EXPECT_EQ(decode(4), (std::vector<Item>{d, e}));
}

TEST(LexicographicTest, PermutationIsValid) {
  Database db = MakeDb({{3, 1}, {2}, {1}, {3, 1, 2}});
  LexicographicResult lex = LexicographicOrder(db);
  ASSERT_EQ(lex.tid_permutation.size(), 4u);
  std::vector<bool> seen(4, false);
  for (Tid t : lex.tid_permutation) {
    ASSERT_LT(t, 4u);
    EXPECT_FALSE(seen[t]);
    seen[t] = true;
  }
}

TEST(LexicographicTest, PreservesMultisetOfTransactions) {
  Database db = MakeDb({{0, 2}, {1}, {0, 2}, {2, 1, 0}});
  LexicographicResult lex = LexicographicOrder(db);
  EXPECT_EQ(lex.database.num_transactions(), db.num_transactions());
  EXPECT_EQ(lex.database.num_entries(), db.num_entries());
  // Total weight and per-rank frequencies must match the originals.
  EXPECT_EQ(lex.database.total_weight(), db.total_weight());
  const auto& orig_freq = db.item_frequencies();
  const auto& new_freq = lex.database.item_frequencies();
  for (Item i = 0; i < orig_freq.size(); ++i) {
    EXPECT_EQ(new_freq[lex.item_order.RankOf(i)], orig_freq[i]);
  }
}

TEST(LexicographicTest, OutputIsSorted) {
  auto dbr = GenerateQuest([] {
    QuestParams p;
    p.num_transactions = 500;
    p.avg_transaction_len = 8;
    p.avg_pattern_len = 3;
    p.num_items = 100;
    p.num_patterns = 50;
    return p;
  }());
  ASSERT_TRUE(dbr.ok());
  LexicographicResult lex = LexicographicOrder(dbr.value());
  const Database& out = lex.database;
  for (Tid t = 1; t < out.num_transactions(); ++t) {
    auto prev = out.transaction(t - 1);
    auto cur = out.transaction(t);
    EXPECT_FALSE(std::lexicographical_compare(cur.begin(), cur.end(),
                                              prev.begin(), prev.end()))
        << "transaction " << t << " sorts before its predecessor";
  }
}

TEST(LexicographicTest, IncreasesConsecutiveJaccardOnRandomInput) {
  auto dbr = GenerateQuest([] {
    QuestParams p;
    p.num_transactions = 2000;
    p.avg_transaction_len = 10;
    p.avg_pattern_len = 4;
    p.num_items = 150;
    p.num_patterns = 60;
    return p;
  }());
  ASSERT_TRUE(dbr.ok());
  const double before = ConsecutiveJaccard(dbr.value());
  LexicographicResult lex = LexicographicOrder(dbr.value());
  const double after = ConsecutiveJaccard(lex.database);
  EXPECT_GT(after, before)
      << "P1 must cluster similar transactions together";
}

TEST(LexicographicTest, WeightsFollowTransactions) {
  DatabaseBuilder b;
  b.AddTransaction({9}, 7);   // rare item -> sorts last
  b.AddTransaction({0}, 3);   // frequent item
  b.AddTransaction({0, 9}, 1);
  Database db = b.Build();
  LexicographicResult lex = LexicographicOrder(db);
  // After ranking, transactions starting with rank 0 come first.
  Support total = 0;
  for (Tid t = 0; t < lex.database.num_transactions(); ++t) {
    total += lex.database.weight(t);
  }
  EXPECT_EQ(total, 11u);
}

}  // namespace
}  // namespace fpm
