#include "fpm/algo/eclat/eclat_miner.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "fpm/algo/lcm/lcm_miner.h"
#include "fpm/dataset/quest_gen.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::EclatFootprints;
using testutil::MakeDb;
using testutil::MineCanonical;

TEST(EclatOptionsTest, SuffixReflectsToggles) {
  EXPECT_EQ(EclatOptions{}.Suffix(), "");
  EclatOptions o;
  o.lexicographic_order = true;
  EXPECT_EQ(o.Suffix(), "+lex");
  o.zero_escaping = true;
  o.popcount = PopcountStrategy::kSwar;
  EXPECT_EQ(o.Suffix(), "+lex+esc+simd:swar");
}

TEST(EclatMinerTest, TextbookExample) {
  Database db = MakeDb({{0, 1}, {0, 2}, {0, 1, 2}, {1}});
  EclatMiner miner;
  const auto r = MineCanonical(miner, db, 2);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r[0], (CollectingSink::Entry{{0}, 3}));
  EXPECT_EQ(r[1], (CollectingSink::Entry{{0, 1}, 2}));
  EXPECT_EQ(r[4], (CollectingSink::Entry{{2}, 2}));
}

TEST(EclatMinerTest, WeightedSupportsViaRowExpansion) {
  DatabaseBuilder b;
  b.AddTransaction({0, 1}, 100);  // expands to 100 bit rows
  b.AddTransaction({1}, 30);
  Database db = b.Build();
  EclatMiner miner;
  const auto r = MineCanonical(miner, db, 100);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], (CollectingSink::Entry{{0}, 100}));
  EXPECT_EQ(r[1], (CollectingSink::Entry{{0, 1}, 100}));
  EXPECT_EQ(r[2], (CollectingSink::Entry{{1}, 130}));
}

TEST(EclatMinerTest, ZeroEscapeMatchesBaselineOnClusteredData) {
  QuestParams p;
  p.num_transactions = 600;
  p.avg_transaction_len = 10;
  p.avg_pattern_len = 4;
  p.num_items = 40;
  p.num_patterns = 25;
  auto db = GenerateQuest(p);
  ASSERT_TRUE(db.ok());
  EclatMiner base;
  EclatOptions esc;
  esc.lexicographic_order = true;
  esc.zero_escaping = true;
  EclatMiner escaped(esc);
  const auto a = MineCanonical(base, db.value(), 15);
  const auto b = MineCanonical(escaped, db.value(), 15);
  testutil::ExpectSameResults(a, b, "escape-vs-base");
  ASSERT_GT(a.size(), 0u);
}

TEST(EclatMinerTest, UnavailableStrategyRejectedUpFront) {
  if (PopcountStrategyAvailable(PopcountStrategy::kAvx2)) {
    GTEST_SKIP() << "host has AVX2; cannot exercise the rejection path";
  }
  EclatOptions o;
  o.popcount = PopcountStrategy::kAvx2;
  EclatMiner miner(o);
  Database db = MakeDb({{0}});
  CollectingSink sink;
  const Status s = miner.Mine(db, 1, &sink).status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(EclatMinerTest, StatsPopulated) {
  Database db = MakeDb({{0, 1, 2}, {0, 1}, {2}});
  EclatMiner miner;
  CountingSink sink;
  Result<MineStats> stats = miner.Mine(db, 1, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_frequent, sink.count());
  EXPECT_GT(stats->peak_structure_bytes, 0u);
}

// ---- P2: the layout follows the data ---------------------------------

TEST(EclatLayoutTest, PicksTidListsOnSparseData) {
  // Every item occurs 4 times in 8000 transactions: a fill of 1/2000,
  // far below the constant, over a universe wide enough that the dense
  // matrix would dwarf the lists.
  DatabaseBuilder b;
  for (int i = 0; i < 8000; ++i) {
    b.AddTransaction({static_cast<Item>(i % 4000),
                      static_cast<Item>((i + 7) % 4000)});
  }
  Database db = b.Build();
  EclatMiner miner(EclatOptions::All());
  CollectingSink sink;
  Result<MineStats> stats = miner.Mine(db, 2, &sink);
  ASSERT_TRUE(stats.ok());
  sink.Canonicalize();
  LcmMiner reference;
  testutil::ExpectSameResults(MineCanonical(reference, db, 2),
                              sink.results(), "tidlists-vs-lcm");
  const testutil::EclatLayoutBytes bytes = EclatFootprints(db, 2);
  EXPECT_EQ(stats->peak_structure_bytes, bytes.tid_lists);
  EXPECT_LT(stats->peak_structure_bytes, bytes.bit_vectors / 10);
}

TEST(EclatLayoutTest, FillAtTheConstantKeepsBitVectors) {
  // K items, each in exactly 2 of 2K transactions: the fill is exactly
  // 1/K, which is not below the constant. One more transaction of an
  // infrequent item lowers it just below.
  const Item k = static_cast<Item>(kEclatTidListFillInverse);
  auto build = [k](bool lower) {
    DatabaseBuilder b;
    for (Item i = 0; i < k; ++i) {
      b.AddTransaction({i});
      b.AddTransaction({i});
    }
    if (lower) b.AddTransaction({k});
    return b.Build();
  };
  const Database at = build(false);
  const Database below = build(true);

  EclatMiner miner;
  CountingSink sink;
  Result<MineStats> at_stats = miner.Mine(at, 2, &sink);
  ASSERT_TRUE(at_stats.ok());
  EXPECT_EQ(at_stats->peak_structure_bytes,
            EclatFootprints(at, 2).bit_vectors);
  Result<MineStats> below_stats = miner.Mine(below, 2, &sink);
  ASSERT_TRUE(below_stats.ok());
  EXPECT_EQ(below_stats->peak_structure_bytes,
            EclatFootprints(below, 2).tid_lists);
  EXPECT_EQ(at_stats->num_frequent, below_stats->num_frequent);
}

// An input whose fill crosses the constant between two supports: tid
// lists at the lower one, bit vectors at the higher. Under every pattern
// configuration the lower run's emission sequence, filtered to the
// higher support, is the higher run's sequence element for element —
// the property the result cache's dominance reuse relies on
// (SupportsDominanceReuse(kEclat)).
class EclatStraddleTest
    : public ::testing::TestWithParam<
          std::tuple<bool, bool, PopcountStrategy>> {};

TEST_P(EclatStraddleTest, LowerSupportRunFilteredIsTheHigherSupportRun) {
  EclatOptions o;
  o.lexicographic_order = std::get<0>(GetParam());
  o.zero_escaping = std::get<1>(GetParam());
  o.popcount = std::get<2>(GetParam());
  if (!PopcountStrategyAvailable(o.popcount)) {
    GTEST_SKIP() << "strategy unavailable";
  }
  const Database db = testutil::SparseDb(
      {.num_transactions = 8192, .num_groups = 1024, .dense_items = 5});
  constexpr Support kLow = 3;
  constexpr Support kHigh = 100;
  EclatMiner miner(o);
  CollectingSink low, high;
  Result<MineStats> low_stats = miner.Mine(db, kLow, &low);
  Result<MineStats> high_stats = miner.Mine(db, kHigh, &high);
  ASSERT_TRUE(low_stats.ok() && high_stats.ok());
  ASSERT_EQ(low_stats->peak_structure_bytes,
            EclatFootprints(db, kLow).tid_lists);
  ASSERT_EQ(high_stats->peak_structure_bytes,
            EclatFootprints(db, kHigh).bit_vectors);

  std::vector<CollectingSink::Entry> filtered;
  for (const CollectingSink::Entry& entry : low.results()) {
    if (entry.second >= kHigh) filtered.push_back(entry);
  }
  ASSERT_GT(high.size(), 10u);
  EXPECT_EQ(filtered, high.results()) << miner.name();
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, EclatStraddleTest,
    ::testing::Combine(
        ::testing::Bool(), ::testing::Bool(),
        ::testing::Values(PopcountStrategy::kLut16, PopcountStrategy::kSwar,
                          PopcountStrategy::kAvx2,
                          PopcountStrategy::kAuto)));

TEST(EclatMinerTest, RejectsBadArguments) {
  Database db = MakeDb({{0}});
  EclatMiner miner;
  CollectingSink sink;
  EXPECT_FALSE(miner.Mine(db, 0, &sink).ok());
  EXPECT_FALSE(miner.Mine(db, 1, nullptr).ok());
}

}  // namespace
}  // namespace fpm
