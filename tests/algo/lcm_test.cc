#include "fpm/algo/lcm/lcm_miner.h"

#include <gtest/gtest.h>

#include "fpm/dataset/quest_gen.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::MakeDb;
using testutil::MineCanonical;

TEST(LcmOptionsTest, SuffixReflectsToggles) {
  EXPECT_EQ(LcmOptions{}.Suffix(), "");
  EXPECT_EQ(LcmOptions::All().Suffix(), "+lex+agg+cmp+tile+wave");
  LcmOptions o;
  o.tiling = true;
  EXPECT_EQ(o.Suffix(), "+tile");
}

TEST(LcmMinerTest, NameIncludesConfiguration) {
  EXPECT_EQ(LcmMiner{}.name(), "lcm");
  EXPECT_EQ(LcmMiner{LcmOptions::All()}.name(), "lcm+lex+agg+cmp+tile+wave");
}

TEST(LcmMinerTest, TextbookExample) {
  Database db = MakeDb({{0, 1}, {0, 2}, {0, 1, 2}, {1}});
  LcmMiner miner;
  const auto r = MineCanonical(miner, db, 2);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r[0], (CollectingSink::Entry{{0}, 3}));
  EXPECT_EQ(r[1], (CollectingSink::Entry{{0, 1}, 2}));
  EXPECT_EQ(r[2], (CollectingSink::Entry{{0, 2}, 2}));
  EXPECT_EQ(r[3], (CollectingSink::Entry{{1}, 3}));
  EXPECT_EQ(r[4], (CollectingSink::Entry{{2}, 2}));
}

TEST(LcmMinerTest, WeightedSupports) {
  DatabaseBuilder b;
  b.AddTransaction({0, 1}, 4);
  b.AddTransaction({0}, 3);
  Database db = b.Build();
  LcmMiner miner;
  const auto r = MineCanonical(miner, db, 4);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], (CollectingSink::Entry{{0}, 7}));
  EXPECT_EQ(r[1], (CollectingSink::Entry{{0, 1}, 4}));
  EXPECT_EQ(r[2], (CollectingSink::Entry{{1}, 4}));
}

TEST(LcmMinerTest, StatsTrackPhasesAndCount) {
  QuestParams p;
  p.num_transactions = 500;
  p.avg_transaction_len = 8;
  p.avg_pattern_len = 3;
  p.num_items = 50;
  p.num_patterns = 30;
  auto db = GenerateQuest(p);
  ASSERT_TRUE(db.ok());
  LcmMiner miner;
  CountingSink sink;
  Result<MineStats> stats = miner.Mine(db.value(), 10, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_frequent, sink.count());
  EXPECT_GT(sink.count(), 0u);
  EXPECT_GT(stats->phase_seconds(PhaseId::kMine), 0.0);
}

TEST(LcmMinerTest, DuplicateTransactionsMergedCorrectly) {
  // Many identical transactions exercise RmDupTrans hard.
  DatabaseBuilder b;
  for (int i = 0; i < 30; ++i) b.AddTransaction({1, 2, 3});
  for (int i = 0; i < 5; ++i) b.AddTransaction({1, 2});
  Database db = b.Build();
  LcmOptions o;
  o.bucket_aggregation = true;
  LcmMiner miner(o);
  const auto r = MineCanonical(miner, db, 30);
  // {1}:35 {2}:35 {1,2}:35 {3}:30 {1,3} {2,3} {1,2,3}:30
  EXPECT_EQ(r.size(), 7u);
}

TEST(LcmMinerTest, TilingHandlesManyItems) {
  // Force multiple tiles and batches with a wide item universe.
  QuestParams p;
  p.num_transactions = 2000;
  p.avg_transaction_len = 12;
  p.avg_pattern_len = 4;
  p.num_items = 300;
  p.num_patterns = 100;
  auto db = GenerateQuest(p);
  ASSERT_TRUE(db.ok());
  LcmOptions tiled;
  tiled.tiling = true;
  tiled.tile_entries = 256;  // force many small tiles
  LcmMiner with_tiling(tiled);
  LcmMiner without_tiling;
  const auto a = MineCanonical(with_tiling, db.value(), 20);
  const auto b = MineCanonical(without_tiling, db.value(), 20);
  testutil::ExpectSameResults(b, a, "tiled-vs-plain");
  ASSERT_GT(a.size(), 0u);
}

TEST(LcmMinerTest, RejectsBadArguments) {
  Database db = MakeDb({{0}});
  LcmMiner miner;
  CollectingSink sink;
  EXPECT_FALSE(miner.Mine(db, 0, &sink).ok());
  EXPECT_FALSE(miner.Mine(db, 1, nullptr).ok());
}

}  // namespace
}  // namespace fpm
