#include "fpm/algo/lcm/closed_miner.h"

#include <gtest/gtest.h>

#include "fpm/algo/lcm/lcm_miner.h"
#include "fpm/dataset/quest_gen.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::ExpectSameResults;
using testutil::MakeDb;
using testutil::MineCanonical;
using testutil::MineClosed;
using testutil::RandomDb;
using testutil::RandomDbSpec;

TEST(ClosedMinerTest, TextbookExample) {
  // 3x{a,b}, 1x{a}: closed = {a}:4, {a,b}:3.
  Database db = MakeDb({{0, 1}, {0, 1}, {0, 1}, {0}});
  LcmClosedMiner miner;
  const auto r = MineCanonical(miner, db, 1);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (CollectingSink::Entry{{0}, 4}));
  EXPECT_EQ(r[1], (CollectingSink::Entry{{0, 1}, 3}));
}

TEST(ClosedMinerTest, FullUniverseClosureEmittedOnce) {
  // Every transaction identical: the only closed set is the whole
  // transaction (clo(∅)).
  DatabaseBuilder b;
  for (int i = 0; i < 7; ++i) b.AddTransaction({2, 4, 6});
  Database db = b.Build();
  LcmClosedMiner miner;
  const auto r = MineCanonical(miner, db, 3);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (CollectingSink::Entry{{2, 4, 6}, 7}));
}

TEST(ClosedMinerTest, MatchesPostFilterOnRandomDbs) {
  LcmMiner all_miner;
  LcmClosedMiner closed_miner;
  for (uint64_t seed = 301; seed <= 308; ++seed) {
    RandomDbSpec spec;
    spec.num_transactions = 50;
    spec.num_items = 9;
    spec.avg_len = 4;
    spec.seed = seed;
    Database db = RandomDb(spec);
    for (Support support : {2u, 4u, 8u}) {
      const auto expected = MineClosed(all_miner, db, support);
      const auto actual = MineCanonical(closed_miner, db, support);
      ExpectSameResults(expected, actual,
                        "seed=" + std::to_string(seed) +
                            " support=" + std::to_string(support));
    }
  }
}

TEST(ClosedMinerTest, MatchesPostFilterOnQuestData) {
  QuestParams p;
  p.num_transactions = 1200;
  p.avg_transaction_len = 8;
  p.avg_pattern_len = 3;
  p.num_items = 80;
  p.num_patterns = 40;
  auto dbr = GenerateQuest(p);
  ASSERT_TRUE(dbr.ok());
  LcmMiner all_miner;
  LcmClosedMiner closed_miner;
  const auto expected = MineClosed(all_miner, dbr.value(), 15);
  ASSERT_GT(expected.size(), 0u);
  const auto actual = MineCanonical(closed_miner, dbr.value(), 15);
  ExpectSameResults(expected, actual, "quest");
}

TEST(ClosedMinerTest, WeightedSupports) {
  DatabaseBuilder b;
  b.AddTransaction({0, 1}, 5);
  b.AddTransaction({0}, 2);
  Database db = b.Build();
  LcmClosedMiner miner;
  const auto r = MineCanonical(miner, db, 2);
  // closed: {0}:7 and {0,1}:5.
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (CollectingSink::Entry{{0}, 7}));
  EXPECT_EQ(r[1], (CollectingSink::Entry{{0, 1}, 5}));
}

TEST(ClosedMinerTest, OutputIsSubsetOfFrequent) {
  RandomDbSpec spec;
  spec.num_transactions = 70;
  spec.num_items = 10;
  spec.seed = 99;
  Database db = RandomDb(spec);
  LcmMiner all_miner;
  LcmClosedMiner closed_miner;
  const auto all = MineCanonical(all_miner, db, 3);
  const auto closed = MineCanonical(closed_miner, db, 3);
  EXPECT_LE(closed.size(), all.size());
  for (const auto& entry : closed) {
    EXPECT_NE(std::find(all.begin(), all.end(), entry), all.end());
  }
}

TEST(ClosedMinerTest, EmptyAndDegenerateInputs) {
  LcmClosedMiner miner;
  CollectingSink sink;
  ASSERT_TRUE(miner.Mine(Database(), 1, &sink).ok());
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_FALSE(miner.Mine(Database(), 0, &sink).ok());
  EXPECT_FALSE(miner.Mine(Database(), 1, nullptr).ok());
}

TEST(ClosedMinerTest, ThresholdAboveEverythingYieldsNothing) {
  Database db = MakeDb({{0, 1}, {1}});
  LcmClosedMiner miner;
  CollectingSink sink;
  ASSERT_TRUE(miner.Mine(db, 10, &sink).ok());
  EXPECT_EQ(sink.size(), 0u);
}

}  // namespace
}  // namespace fpm
