// The class decomposition against the eager projection it replaces: a
// class database built from the row index must make every kernel emit
// exactly what it emits on the full conditional database (every prefix
// copied into every class), in the same order, and must keep that
// database's transaction count and total weight.

#include "fpm/parallel/decompose.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fpm/common/rng.h"
#include "fpm/core/mine.h"
#include "fpm/layout/item_order.h"
#include "fpm/parallel/thread_pool.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using Emission = std::pair<std::vector<Item>, Support>;

// Records emissions exactly as made: no sorting within or across sets.
class RecordingSink : public ItemsetSink {
 public:
  void Emit(std::span<const Item> itemset, Support support) override {
    emissions.emplace_back(std::vector<Item>(itemset.begin(), itemset.end()),
                           support);
  }
  std::vector<Emission> emissions;
};

// The eager projection: every frequent-rank prefix copied into the
// builder of the class that follows it.
std::vector<Database> ReferenceProjection(const Database& db,
                                          Support min_support) {
  const Database ranked =
      RemapItems(db, ItemOrder::ByDecreasingFrequency(db));
  const auto freq = ranked.item_frequencies();
  size_t num_frequent = 0;
  while (num_frequent < freq.size() && freq[num_frequent] >= min_support) {
    ++num_frequent;
  }
  std::vector<DatabaseBuilder> builders(num_frequent);
  for (Tid t = 0; t < ranked.num_transactions(); ++t) {
    const auto tx = ranked.transaction(t);
    size_t m = 0;
    while (m < tx.size() && tx[m] < num_frequent) ++m;
    for (size_t j = 1; j < m; ++j) {
      builders[tx[j]].AddSortedTransaction(tx.subspan(0, j), ranked.weight(t));
    }
  }
  std::vector<Database> classes;
  for (DatabaseBuilder& b : builders) classes.push_back(b.Build());
  return classes;
}

std::vector<Emission> MineRecorded(Algorithm algorithm, PatternSet patterns,
                                   const Database& db, Support min_support) {
  Result<std::unique_ptr<Miner>> kernel = CreateMiner(algorithm, patterns);
  EXPECT_TRUE(kernel.ok());
  RecordingSink sink;
  EXPECT_TRUE((*kernel)->Mine(db, min_support, &sink).ok());
  return sink.emissions;
}

// Checks every class of `db` against the reference projection, for
// every kernel under both pattern extremes.
void ExpectMatchesReference(const Database& db, Support min_support,
                            const std::string& label) {
  const std::vector<Database> reference = ReferenceProjection(db, min_support);
  const ClassDecomposition decomp = DecomposeClasses(db, min_support);
  ASSERT_EQ(decomp.num_classes(), reference.size()) << label;
  for (Item c = 0; c < reference.size(); ++c) {
    const std::string where = label + " class " + std::to_string(c);
    const Database& ref = reference[c];
    const Database cls = ProjectClass(decomp, c, min_support);
    EXPECT_EQ(cls.num_transactions(), ref.num_transactions()) << where;
    EXPECT_EQ(cls.total_weight(), ref.total_weight()) << where;
    EXPECT_EQ(decomp.class_entries[c], ref.num_entries()) << where;
    for (Algorithm algorithm :
         {Algorithm::kLcm, Algorithm::kEclat, Algorithm::kFpGrowth}) {
      for (PatternSet patterns :
           {PatternSet::None(), PatternSet::ApplicableTo(algorithm)}) {
        EXPECT_EQ(MineRecorded(algorithm, patterns, cls, min_support),
                  MineRecorded(algorithm, patterns, ref, min_support))
            << where << " " << AlgorithmName(algorithm) << " "
            << patterns.ToString();
      }
    }
  }
}

// Uniform random transactions with weights 1..3.
Database WeightedRandomDb(uint64_t seed) {
  Rng rng(seed);
  DatabaseBuilder b;
  std::vector<Item> tx;
  for (int t = 0; t < 80; ++t) {
    tx.clear();
    const uint32_t len = rng.NextPoisson(4.0);
    for (uint32_t i = 0; i < len; ++i) {
      tx.push_back(static_cast<Item>(rng.NextBounded(14)));
    }
    b.AddTransaction(tx, 1 + static_cast<Support>(rng.NextBounded(3)));
  }
  return b.Build();
}

// 600 frequent items at support 2, mostly in 2-item transactions: too
// few entries per frequent item to split the input into tid blocks.
Database ManyFrequentItemsDb() {
  DatabaseBuilder b;
  for (Item i = 0; i < 600; ++i) b.AddTransaction({i, (i + 7) % 600});
  for (Item i = 0; i < 60; ++i) {
    b.AddTransaction({i, i + 1, i + 5, i + 64, i + 130, i + 500}, 2);
  }
  return b.Build();
}

TEST(DecomposeTest, WeightedRandomDatabasesMatchEagerProjection) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Database db = WeightedRandomDb(seed);
    for (Support min_support : {4u, 12u}) {
      ExpectMatchesReference(db, min_support,
                             "seed " + std::to_string(seed) + " support " +
                                 std::to_string(min_support));
    }
  }
}

TEST(DecomposeTest, EdgeCasesMatchEagerProjection) {
  // At support 2, items 0 (support 5), 1 (4) and 2 (2) are frequent and
  // rank as their ids; 3 and 4 are not. Class 2's rows {0} and {1} are
  // both infrequent inside the class, so they all end up empty. {3}
  // keeps no frequent item, {0, 4} one, and {} none at all.
  DatabaseBuilder b;
  b.AddTransaction({0, 2}, 1);
  b.AddTransaction({1, 2}, 1);
  b.AddTransaction({0, 1}, 2);
  b.AddTransaction({0, 1}, 1);
  b.AddTransaction({3}, 1);
  b.AddTransaction({0, 4}, 1);
  b.AddTransaction({}, 1);
  const Database db = b.Build();
  ExpectMatchesReference(db, 2, "edge cases");

  const ClassDecomposition decomp = DecomposeClasses(db, 2);
  ASSERT_EQ(decomp.num_classes(), 3u);
  EXPECT_EQ(decomp.rank_to_item[2], 2u);
  const Database emptied = ProjectClass(decomp, 2, 2);
  EXPECT_EQ(emptied.num_transactions(), 2u);
  EXPECT_EQ(emptied.num_entries(), 0u);
}

TEST(DecomposeTest, ManyFrequentItemsMatchEagerProjection) {
  ExpectMatchesReference(ManyFrequentItemsDb(), 2, "many frequent items");
}

TEST(DecomposeTest, SupportAboveEveryItemHasNoClasses) {
  const Database db = testutil::MakeDb({{0, 1}, {0, 1}, {1}});
  const ClassDecomposition decomp = DecomposeClasses(db, 4);
  EXPECT_EQ(decomp.num_classes(), 0u);
  EXPECT_TRUE(decomp.rows.empty());
  ExpectMatchesReference(db, 4, "support above every item");
}

TEST(DecomposeTest, EmptyDatabaseHasNoClasses) {
  const ClassDecomposition decomp = DecomposeClasses(Database(), 1);
  EXPECT_EQ(decomp.num_classes(), 0u);
  EXPECT_EQ(decomp.ranked.num_transactions(), 0u);
  ThreadPool pool(2);
  EXPECT_EQ(DecomposeClasses(Database(), 1, &pool).num_classes(), 0u);
}

TEST(DecomposeTest, PooledPassesMatchSerialPass) {
  // Blocks of tids are ranked and indexed on the pool, then joined in
  // order: the result must not depend on the split.
  ThreadPool pool(3);
  std::vector<std::pair<Database, Support>> cases;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    cases.emplace_back(WeightedRandomDb(seed), 4);
  }
  cases.emplace_back(ManyFrequentItemsDb(), 2);
  for (const auto& [db, min_support] : cases) {
    const ClassDecomposition serial = DecomposeClasses(db, min_support);
    const ClassDecomposition pooled = DecomposeClasses(db, min_support, &pool);
    const auto same = [](auto a, auto b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    EXPECT_TRUE(same(serial.ranked.items(), pooled.ranked.items()));
    EXPECT_TRUE(same(serial.ranked.offsets(), pooled.ranked.offsets()));
    EXPECT_TRUE(same(serial.ranked.weights(), pooled.ranked.weights()));
    EXPECT_EQ(serial.row_begin, pooled.row_begin);
    ASSERT_EQ(serial.rows.size(), pooled.rows.size());
    for (size_t r = 0; r < serial.rows.size(); ++r) {
      EXPECT_EQ(serial.rows[r].tid, pooled.rows[r].tid) << "row " << r;
      EXPECT_EQ(serial.rows[r].length, pooled.rows[r].length) << "row " << r;
    }
    EXPECT_EQ(serial.class_entries, pooled.class_entries);
    EXPECT_EQ(serial.class_supports, pooled.class_supports);
    EXPECT_EQ(serial.rank_to_item, pooled.rank_to_item);
  }
}

}  // namespace
}  // namespace fpm
