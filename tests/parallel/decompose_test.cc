// The class decomposition against the eager projection it replaces: a
// class database built from the row index must make every kernel emit
// exactly what it emits on the full conditional database (every prefix
// copied into every class), in the same order, and must keep that
// database's transaction count and total weight; a class with nothing
// frequent inside it builds nothing. The ranked database must equal the
// input remapped by RemapItems and cut to its frequent ranks, whichever
// way each transaction's ranks were ordered (bitmap or sort) and
// however many tid blocks the pool split the input into. On inputs that
// keep the rank bitmaps, every class counted through the adders must
// equal the class counted from the raw transactions, and so must every
// class counted row by row however many classes the thread's counters
// served before it.

#include "fpm/parallel/decompose.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fpm/common/rng.h"
#include "fpm/core/mine.h"
#include "fpm/dataset/packed.h"
#include "fpm/layout/item_order.h"
#include "fpm/parallel/thread_pool.h"
#include "testing/class_testutil.h"
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
    const auto ref_freq = ref.item_frequencies();
    if (std::none_of(ref_freq.begin(), ref_freq.end(),
                     [&](Support s) { return s >= min_support; })) {
      EXPECT_EQ(cls.num_transactions(), 0u) << where;  // built nothing
    } else {
      EXPECT_EQ(cls.num_transactions(), ref.num_transactions()) << where;
      EXPECT_EQ(cls.total_weight(), ref.total_weight()) << where;
    }
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

// Uniform random transactions with weights 1..max_weight (1: the
// unweighted twin, which keeps the rank bitmaps).
Database WeightedRandomDb(uint64_t seed, uint64_t max_weight = 3) {
  Rng rng(seed);
  DatabaseBuilder b;
  std::vector<Item> tx;
  for (int t = 0; t < 80; ++t) {
    tx.clear();
    const uint32_t len = rng.NextPoisson(4.0);
    for (uint32_t i = 0; i < len; ++i) {
      tx.push_back(static_cast<Item>(rng.NextBounded(14)));
    }
    b.AddTransaction(tx,
                     1 + static_cast<Support>(rng.NextBounded(max_weight)));
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
  // Weights 1..3, and the unweighted twins, which keep the rank bitmaps.
  for (uint64_t max_weight : {3u, 1u}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const Database db = WeightedRandomDb(seed, max_weight);
      for (Support min_support : {4u, 12u}) {
        ExpectMatchesReference(
            db, min_support,
            "seed " + std::to_string(seed) + " max weight " +
                std::to_string(max_weight) + " support " +
                std::to_string(min_support));
      }
    }
  }
}

TEST(DecomposeTest, EdgeCasesMatchEagerProjection) {
  // At support 2, items 0 (support 5), 1 (4) and 2 (2) are frequent and
  // rank as their ids; 3 and 4 are not. Class 2's rows {0} and {1} are
  // both infrequent inside the class, so it has nothing to mine and
  // builds nothing. {3} keeps no frequent item, {0, 4} one, and {} none
  // at all.
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
  EXPECT_EQ(decomp.class_rows(2).size(), 2u);
  const Database emptied = ProjectClass(decomp, 2, 2);
  EXPECT_EQ(emptied.num_transactions(), 0u);
  EXPECT_EQ(emptied.num_entries(), 0u);
  EXPECT_EQ(emptied.resident_bytes(), 0u);
}

TEST(DecomposeTest, ManyFrequentItemsMatchEagerProjection) {
  ExpectMatchesReference(ManyFrequentItemsDb(), 2, "many frequent items");
}

TEST(DecomposeTest, SupportAboveEveryItemHasNoClasses) {
  const Database db = testutil::MakeDb({{0, 1}, {0, 1}, {1}});
  const ClassDecomposition decomp = DecomposeClasses(db, 4);
  EXPECT_EQ(decomp.num_classes(), 0u);
  EXPECT_TRUE(decomp.rows().empty());
  ExpectMatchesReference(db, 4, "support above every item");
}

TEST(DecomposeTest, EmptyDatabaseHasNoClasses) {
  const ClassDecomposition decomp = DecomposeClasses(Database(), 1);
  EXPECT_EQ(decomp.num_classes(), 0u);
  EXPECT_EQ(decomp.ranked.num_transactions(), 0u);
  ThreadPool pool(2);
  EXPECT_EQ(DecomposeClasses(Database(), 1, &pool).num_classes(), 0u);
}

// Frequent items 0..199 whose ranks are their ids: each owns a
// one-item transaction weighing 10 * (300 - id), far more than the few
// other transactions add. Items 500 and up occur once and are not
// frequent at support 3. The rest puts ranks on both sides of the word
// edges 63/64 and 127/128, in shuffled order with infrequent items
// between them; spreads a few ranks over many words, so the transaction
// is sorted rather than read back through the bitmap; and adds an empty
// transaction and weighted rows.
Database WordEdgeDb() {
  DatabaseBuilder b;
  for (Item i = 0; i < 200; ++i) b.AddTransaction({i}, 10 * (300 - i));
  b.AddTransaction({64, 63});
  b.AddTransaction({128, 500, 127});
  b.AddTransaction({128, 64, 501, 127, 63, 0}, 2);
  b.AddTransaction({62, 63, 64, 65, 126, 127, 128, 129});
  b.AddTransaction({});
  b.AddTransaction({502});
  b.AddTransaction({199, 0});           // 2 ranks over 4 words: sorted
  b.AddTransaction({130, 199, 5}, 3);   // 3 ranks over 4 words: sorted
  b.AddTransaction({191, 0, 64, 128});  // 4 ranks over 3 words: bitmap
  std::vector<Item> run;
  for (Item i = 199; i > 100; i -= 3) run.push_back(i);
  b.AddTransaction(run);
  return b.Build();
}

// The input remapped item by item, sorted, and cut to its frequent ranks.
Database ReferenceRanked(const Database& db, Support min_support) {
  const ItemOrder order = ItemOrder::ByDecreasingFrequency(db);
  const Database remapped = RemapItems(db, order);
  const auto freq = db.item_frequencies();
  Item num_frequent = 0;
  while (num_frequent < order.size() &&
         freq[order.ItemAt(num_frequent)] >= min_support) {
    ++num_frequent;
  }
  DatabaseBuilder b;
  for (Tid t = 0; t < remapped.num_transactions(); ++t) {
    const auto tx = remapped.transaction(t);
    const auto cut = std::lower_bound(tx.begin(), tx.end(), num_frequent);
    b.AddSortedTransaction(tx.first(cut - tx.begin()), remapped.weight(t));
  }
  return b.Build();
}

template <typename A, typename B>
bool Same(const A& a, const B& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

void ExpectRankedMatchesReference(const ClassDecomposition& decomp,
                                  const Database& db, Support min_support,
                                  const std::string& label) {
  const Database ref = ReferenceRanked(db, min_support);
  const Database& ranked = decomp.ranked;
  EXPECT_TRUE(Same(ranked.items(), ref.items())) << label;
  EXPECT_TRUE(Same(ranked.offsets(), ref.offsets())) << label;
  EXPECT_TRUE(Same(ranked.weights(), ref.weights())) << label;
  EXPECT_TRUE(Same(ranked.item_frequencies(), ref.item_frequencies()))
      << label;
  EXPECT_EQ(ranked.num_items(), ref.num_items()) << label;
  EXPECT_EQ(ranked.num_items(), decomp.num_classes()) << label;
  EXPECT_EQ(ranked.total_weight(), ref.total_weight()) << label;
  EXPECT_EQ(ranked.num_transactions(), db.num_transactions()) << label;
}

void ExpectSameDecomposition(const ClassDecomposition& a,
                             const ClassDecomposition& b,
                             const std::string& label) {
  EXPECT_TRUE(Same(a.ranked.items(), b.ranked.items())) << label;
  EXPECT_TRUE(Same(a.ranked.offsets(), b.ranked.offsets())) << label;
  EXPECT_TRUE(Same(a.ranked.weights(), b.ranked.weights())) << label;
  EXPECT_TRUE(Same(a.class_supports(), b.class_supports())) << label;
  EXPECT_EQ(a.row_begin, b.row_begin) << label;
  ASSERT_EQ(a.rows().size(), b.rows().size()) << label;
  for (size_t r = 0; r < a.rows().size(); ++r) {
    EXPECT_EQ(a.rows()[r].tid, b.rows()[r].tid) << label << " row " << r;
    EXPECT_EQ(a.rows()[r].length, b.rows()[r].length)
        << label << " row " << r;
  }
  EXPECT_EQ(a.class_entries, b.class_entries) << label;
  EXPECT_EQ(a.rank_to_item, b.rank_to_item) << label;
  ASSERT_EQ(a.bitmaps != nullptr, b.bitmaps != nullptr) << label;
  EXPECT_EQ(a.bitmap_words, b.bitmap_words) << label;
  if (a.bitmaps != nullptr) {
    const size_t words = a.ranked.num_transactions() * a.bitmap_words;
    EXPECT_TRUE(std::equal(a.bitmaps.get(), a.bitmaps.get() + words,
                           b.bitmaps.get()))
        << label;
  }
}

TEST(DecomposeTest, RanksAcrossWordEdgesMatchRemapItems) {
  const Database db = WordEdgeDb();
  const ClassDecomposition decomp = DecomposeClasses(db, 3);
  ASSERT_EQ(decomp.num_classes(), 200u);
  for (Item i = 0; i < 200; ++i) ASSERT_EQ(decomp.rank_to_item[i], i);
  ExpectRankedMatchesReference(decomp, db, 3, "word edges");

  // Spot checks of the premise: ascending ranks across each word edge,
  // infrequent items dropped, the sorted transactions in order.
  const Tid first = 200;
  const auto tx = [&](Tid t) {
    const auto span = decomp.ranked.transaction(t);
    return std::vector<Item>(span.begin(), span.end());
  };
  EXPECT_EQ(tx(first), (std::vector<Item>{63, 64}));
  EXPECT_EQ(tx(first + 1), (std::vector<Item>{127, 128}));
  EXPECT_EQ(tx(first + 2), (std::vector<Item>{0, 63, 64, 127, 128}));
  EXPECT_TRUE(tx(first + 4).empty());
  EXPECT_TRUE(tx(first + 5).empty());
  EXPECT_EQ(tx(first + 6), (std::vector<Item>{0, 199}));
  EXPECT_EQ(tx(first + 7), (std::vector<Item>{5, 130, 199}));
  EXPECT_EQ(tx(first + 8), (std::vector<Item>{0, 64, 128, 191}));
  EXPECT_EQ(decomp.ranked.weight(first + 7), 3u);

  // Class 64 owns the prefixes before rank 64, in tid order.
  const auto rows = decomp.class_rows(64);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].tid, first);
  EXPECT_EQ(rows[0].length, 1u);
  EXPECT_EQ(rows[1].tid, first + 2);
  EXPECT_EQ(rows[1].length, 2u);
  EXPECT_EQ(rows[2].tid, first + 3);
  EXPECT_EQ(rows[2].length, 2u);
  EXPECT_EQ(rows[3].tid, first + 8);
  EXPECT_EQ(rows[3].length, 1u);
}

TEST(DecomposeTest, WordEdgeClassesMatchEagerProjection) {
  ExpectMatchesReference(WordEdgeDb(), 3, "word edges");
}

TEST(DecomposeTest, RankedDatabaseMatchesRemapItems) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Database db = WeightedRandomDb(seed);
    for (Support min_support : {1u, 4u, 12u, 1000u}) {
      const std::string label = "seed " + std::to_string(seed) +
                                " support " + std::to_string(min_support);
      ExpectRankedMatchesReference(DecomposeClasses(db, min_support), db,
                                   min_support, label);
    }
  }
  ExpectRankedMatchesReference(DecomposeClasses(ManyFrequentItemsDb(), 2),
                               ManyFrequentItemsDb(), 2, "many frequent");
}

TEST(DecomposeTest, ClassWithNothingFrequentBuildsNothing) {
  // Items rank as their ids. Class 3's rows {0} and {1} each occur once:
  // nothing reaches support 2 inside it. Class 2's rows are {0}, {0} and
  // {1}: it keeps all three, the last one emptied.
  const Database db =
      testutil::MakeDb({{0, 3}, {1, 3}, {0, 2}, {0, 2}, {1, 2}, {0}, {1}});
  const ClassDecomposition decomp = DecomposeClasses(db, 2);
  ASSERT_EQ(decomp.num_classes(), 4u);
  for (Item i = 0; i < 4; ++i) ASSERT_EQ(decomp.rank_to_item[i], i);
  EXPECT_EQ(decomp.class_rows(3).size(), 2u);
  const Database nothing = ProjectClass(decomp, 3, 2);
  EXPECT_EQ(nothing.num_transactions(), 0u);
  EXPECT_EQ(nothing.total_weight(), 0u);
  EXPECT_EQ(nothing.resident_bytes(), 0u);
  const Database kept = ProjectClass(decomp, 2, 2);
  EXPECT_EQ(kept.num_transactions(), 3u);
  EXPECT_EQ(kept.num_entries(), 2u);
  EXPECT_EQ(kept.total_weight(), 3u);
  EXPECT_EQ(ProjectClass(decomp, 0, 2).num_transactions(), 0u);
}

// A packed file may repeat an item inside a transaction (OpenMapped
// checks ids, not repeats). The bitmap would fold the repeat, so such a
// transaction is sorted instead: every rank of it is written, and the
// ranked transaction keeps the repeat.
TEST(DecomposeTest, RepeatedItemFromAPackedFileIsKept) {
  const Database built =
      testutil::MakeDb({{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 3}, {1, 2}});
  const std::string path = testing::TempDir() + "/decompose_repeat.fpk";
  ASSERT_TRUE(WritePacked(built, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(bytes.size(), 192u);
  // The items array follows the 80-byte header and the six offsets:
  // make the first transaction's third item (entry 2) a second item 1.
  const uint32_t repeat = 1;
  std::memcpy(bytes.data() + 128 + 2 * sizeof(repeat), &repeat,
              sizeof(repeat));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Result<Database> mapped = OpenMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  // Ranks by the file's frequencies: item 1 -> 0, 0 -> 1, 2 -> 2, 3 -> 3.
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const ClassDecomposition decomp = DecomposeClasses(*mapped, 1, p);
    const auto ranked = decomp.ranked.items();
    EXPECT_EQ(std::vector<Item>(ranked.begin(), ranked.end()),
              (std::vector<Item>{0, 0, 1, 0, 1, 0, 2, 3, 1, 3, 0, 2}));
    const auto offsets = decomp.ranked.offsets();
    EXPECT_EQ(std::vector<size_t>(offsets.begin(), offsets.end()),
              (std::vector<size_t>{0, 3, 5, 8, 10, 12}));

    // Dense and unweighted (2 * 5 transactions * 1 word <= 12 entries),
    // but a bitmap would fold the repeat, so the rows count the class:
    // class 1's rows {0, 0} and {0} give rank 0 a count of 3, which a
    // folded bitmap would make 2, failing support 3.
    EXPECT_EQ(decomp.bitmaps, nullptr);
    for (Support class_support : {1u, 2u, 3u}) {
      const std::vector<Database> reference =
          testutil::ReferenceClasses(*mapped, 1, class_support);
      ASSERT_EQ(reference.size(), decomp.num_classes());
      for (Item c = 0; c < decomp.num_classes(); ++c) {
        testutil::ExpectSameDatabase(
            reference[c], ProjectClass(decomp, c, class_support),
            "support " + std::to_string(class_support) + " class " +
                std::to_string(c));
      }
    }
    EXPECT_EQ(ProjectClass(decomp, 1, 3).num_transactions(), 2u);
  }
}

// Uniform random transactions over `num_items` items, weights
// 1..max_weight: with many transactions per frequent item the block rule
// does not cap the block count, with few it does.
Database LongRandomDb(uint64_t seed, int num_tx, uint64_t num_items,
                      uint64_t max_weight = 2) {
  Rng rng(seed);
  DatabaseBuilder b;
  std::vector<Item> tx;
  for (int t = 0; t < num_tx; ++t) {
    tx.clear();
    const uint32_t len = rng.NextPoisson(6.0);
    for (uint32_t i = 0; i < len; ++i) {
      tx.push_back(static_cast<Item>(rng.NextBounded(num_items)));
    }
    b.AddTransaction(tx,
                     1 + static_cast<Support>(rng.NextBounded(max_weight)));
  }
  return b.Build();
}

TEST(DecomposeTest, PooledPassesMatchSerialPass) {
  // Blocks of tids are ranked and indexed on the pool, each writing in
  // place: the result must not depend on the split. 2000 transactions
  // over 20 items get 4 blocks per worker; the block rule caps 300 over
  // 120 items at support 2 at 3 blocks, the weighted inputs at 4 or 5,
  // and the many-frequent-items and word-edge inputs at 1.
  std::vector<std::pair<Database, Support>> cases;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    cases.emplace_back(WeightedRandomDb(seed), 4);
  }
  cases.emplace_back(LongRandomDb(7, 2000, 20), 5);
  cases.emplace_back(LongRandomDb(8, 300, 120), 2);
  cases.emplace_back(ManyFrequentItemsDb(), 2);
  cases.emplace_back(WordEdgeDb(), 3);
  // Unweighted twins: these keep the rank bitmaps.
  cases.emplace_back(WeightedRandomDb(1, 1), 4);
  cases.emplace_back(LongRandomDb(7, 2000, 20, 1), 5);
  cases.emplace_back(LongRandomDb(8, 300, 120, 1), 2);
  for (uint32_t workers = 1; workers <= 4; ++workers) {
    ThreadPool pool(workers);
    for (size_t i = 0; i < cases.size(); ++i) {
      const auto& [db, min_support] = cases[i];
      const std::string label = "case " + std::to_string(i) + " on " +
                                std::to_string(workers) + " workers";
      const ClassDecomposition serial = DecomposeClasses(db, min_support);
      const ClassDecomposition pooled =
          DecomposeClasses(db, min_support, &pool);
      ExpectRankedMatchesReference(pooled, db, min_support, label);
      ExpectSameDecomposition(serial, pooled, label);
    }
  }
}

// Decomposes `db` at `min_support` on pools of 1, 2 and 4 workers, then
// projects every class at each of `class_supports` as tasks on the pool
// (so each worker counts into its own counters) and checks it against
// the class counted from the raw transactions.
void ExpectProjectionsMatchRawCount(const Database& db, Support min_support,
                                    std::vector<Support> class_supports,
                                    bool bitmaps, const std::string& label) {
  for (uint32_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    const ClassDecomposition decomp = DecomposeClasses(db, min_support, &pool);
    const std::string on = label + " on " + std::to_string(workers) +
                           " workers";
    EXPECT_EQ(decomp.bitmaps != nullptr, bitmaps) << on;
    for (Support class_support : class_supports) {
      const std::string where =
          on + " at class support " + std::to_string(class_support);
      std::vector<Database> projected(decomp.num_classes());
      TaskGroup group(&pool);
      for (Item c = 0; c < decomp.num_classes(); ++c) {
        group.Run([&, c] {
          projected[c] = ProjectClass(decomp, c, class_support);
        });
      }
      group.Wait();
      const std::vector<Database> reference =
          testutil::ReferenceClasses(db, min_support, class_support);
      ASSERT_EQ(reference.size(), projected.size()) << where;
      for (Item c = 0; c < projected.size(); ++c) {
        testutil::ExpectSameDatabase(reference[c], projected[c],
                                     where + " class " + std::to_string(c));
      }
    }
  }
}

TEST(DecomposeTest, UnweightedTwinsProjectLikeTheRawCount) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Database db = WeightedRandomDb(seed, 1);
    for (Support min_support : {1u, 4u, 12u}) {
      ExpectProjectionsMatchRawCount(
          db, min_support, {min_support}, true,
          "twin " + std::to_string(seed) + " support " +
              std::to_string(min_support));
    }
  }
  ExpectProjectionsMatchRawCount(LongRandomDb(7, 2000, 20, 1), 5,
                                 {5, 300, 600}, true, "2000 over 20");
  ExpectProjectionsMatchRawCount(LongRandomDb(8, 300, 120, 1), 2, {2, 5},
                                 true, "300 over 120");
  // The weighted originals count row by row, to the same databases.
  ExpectProjectionsMatchRawCount(WeightedRandomDb(1), 4, {4}, false,
                                 "weighted");
  ExpectProjectionsMatchRawCount(LongRandomDb(8, 300, 120), 2, {2, 5}, false,
                                 "weighted 300 over 120");
}

// Unweighted and dense: transaction k of 170 holds items 0..169-k but
// those with (2i + k) % 11 == 0, so item i occurs in about 10/11 of the
// 170 - i transactions that reach it. That spreads the class row counts
// over 0..153 (one class at each of 15, 16, 17, 31, 32 and 33 rows),
// puts owners at ranks 63, 64, 65 and 128 (3 words of ranks), and lets
// the counts inside the large classes cross 16, 32, 64 and 128, the
// edges of the adders' sixteens and wider planes.
Database StaircaseDb() {
  DatabaseBuilder b;
  std::vector<Item> tx;
  for (Item k = 0; k < 170; ++k) {
    tx.clear();
    for (Item i = 0; i < 170 - k; ++i) {
      if ((2 * i + k) % 11 != 0) tx.push_back(i);
    }
    b.AddTransaction(tx);
  }
  return b.Build();
}

TEST(DecomposeTest, DenseClassesAcrossPlaneAndWordEdgesProjectLikeTheRawCount) {
  const Database db = StaircaseDb();
  const ClassDecomposition decomp = DecomposeClasses(db, 1);
  ASSERT_NE(decomp.bitmaps, nullptr);
  ASSERT_EQ(decomp.bitmap_words, 3u);
  ASSERT_GE(decomp.num_classes(), 129u);
  // The premise: classes of every row count around a group of 16 rows.
  std::vector<size_t> row_counts;
  for (Item c = 0; c < decomp.num_classes(); ++c) {
    row_counts.push_back(decomp.class_rows(c).size());
  }
  for (size_t rows : {15u, 16u, 17u, 31u, 32u, 33u}) {
    EXPECT_NE(std::find(row_counts.begin(), row_counts.end(), rows),
              row_counts.end())
        << rows << " rows";
  }
  for (Item owner : {63u, 64u, 65u, 128u}) {
    EXPECT_GT(ProjectClass(decomp, owner, 1).num_transactions(), 0u)
        << owner;
  }
  const Support above_all = static_cast<Support>(
      *std::max_element(row_counts.begin(), row_counts.end()) + 1);
  ASSERT_GT(above_all, 129u);

  // Support 1 keeps every rank a class's rows hold; the others sit on
  // and just past the planes' edges; `above_all` exceeds every class's
  // row count, so every class builds nothing.
  ExpectProjectionsMatchRawCount(
      db, 1, {1, 16, 17, 32, 33, 64, 65, 128, 129, above_all}, true,
      "staircase");
  ExpectProjectionsMatchRawCount(db, 16, {16, 31, 48}, true,
                                 "staircase at 16");
  for (Item c = 0; c < decomp.num_classes(); ++c) {
    EXPECT_EQ(ProjectClass(decomp, c, above_all).num_transactions(), 0u)
        << c;
  }
}

// The bitmaps are kept exactly when the input is unweighted, repeats no
// rank (see RepeatedItemFromAPackedFileIsKept) and 2 * N * W <= entries.
TEST(DecomposeTest, BitmapsAreKeptOnlyWhereTheAddersCanCount) {
  // {i, i+1} for i < 10: 11 frequent ranks in 1 word, 10 transactions,
  // 20 entries: 2 * 10 * 1 <= 20 keeps them.
  DatabaseBuilder pairs;
  for (Item i = 0; i < 10; ++i) pairs.AddTransaction({i, i + 1});
  const Database dense = pairs.Build();
  const ClassDecomposition kept = DecomposeClasses(dense, 1);
  ASSERT_NE(kept.bitmaps, nullptr);
  EXPECT_EQ(kept.bitmap_words, 1u);
  EXPECT_EQ(kept.memory_bytes(),
            kept.ranked.resident_bytes() + kept.rows().size_bytes() +
                kept.row_begin.capacity() * sizeof(size_t) +
                10 * sizeof(uint64_t));
  ExpectProjectionsMatchRawCount(dense, 1, {1, 2}, true, "pairs");

  // One more transaction of one rank: 2 * 11 * 1 > 21 drops them.
  for (Item i = 0; i < 10; ++i) pairs.AddTransaction({i, i + 1});
  pairs.AddTransaction({0});
  const Database sparse = pairs.Build();
  const ClassDecomposition dropped = DecomposeClasses(sparse, 1);
  EXPECT_EQ(dropped.bitmaps, nullptr);
  EXPECT_EQ(dropped.bitmap_words, 0u);
  EXPECT_EQ(dropped.memory_bytes(),
            dropped.ranked.resident_bytes() + dropped.rows().size_bytes() +
                dropped.row_begin.capacity() * sizeof(size_t));
  ExpectProjectionsMatchRawCount(sparse, 1, {1, 2}, false, "pairs and one");

  // The dense pairs with one weight 2: the adders count rows, not weights.
  for (Item i = 0; i < 10; ++i) pairs.AddTransaction({i, i + 1}, i == 4 ? 2 : 1);
  const Database weighted = pairs.Build();
  EXPECT_EQ(DecomposeClasses(weighted, 1).bitmaps, nullptr);
  ExpectProjectionsMatchRawCount(weighted, 1, {1, 2, 3}, false,
                                 "weighted pairs");
}

// The row count's per-thread counters are all zero between classes:
// classes of two different sparse decompositions (no bitmaps), projected
// on one thread in a shuffled order, each equal the raw count. One input
// has a dense tier, whose classes hold more entries than ranks and reset
// their counters whole; the rest reset entry by entry.
TEST(DecomposeTest, RowCountsOfInterleavedClassesMatchTheRawCount) {
  const Database first = testutil::SparseDb({.num_transactions = 3000,
                                             .num_groups = 300,
                                             .dense_items = 6,
                                             .seed = 3});
  const Database second =
      testutil::SparseDb({.num_transactions = 2000, .num_groups = 500,
                          .max_weight = 3, .seed = 4});
  const std::vector<std::pair<const Database*, Support>> inputs = {
      {&first, 2}, {&second, 3}};
  std::vector<ClassDecomposition> decomps;
  std::vector<std::vector<Database>> reference;
  std::vector<std::pair<size_t, Item>> order;
  size_t whole = 0;
  size_t by_entry = 0;
  for (size_t d = 0; d < inputs.size(); ++d) {
    const auto& [db, min_support] = inputs[d];
    decomps.push_back(DecomposeClasses(*db, min_support));
    ASSERT_EQ(decomps.back().bitmaps, nullptr) << d;
    reference.push_back(
        testutil::ReferenceClasses(*db, min_support, min_support));
    ASSERT_EQ(reference.back().size(), decomps.back().num_classes()) << d;
    for (Item c = 0; c < decomps.back().num_classes(); ++c) {
      order.emplace_back(d, c);
      (decomps.back().class_entries[c] >= c ? whole : by_entry) += 1;
    }
  }
  EXPECT_GT(whole, 1u);
  EXPECT_GT(by_entry, 100u);
  Rng rng(11);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  for (const auto& [d, c] : order) {
    testutil::ExpectSameDatabase(
        reference[d][c], ProjectClass(decomps[d], c, inputs[d].second),
        "input " + std::to_string(d) + " class " + std::to_string(c));
  }
}

}  // namespace
}  // namespace fpm
