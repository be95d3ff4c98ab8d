#include "fpm/core/partition.h"

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/algo/lcm/lcm_miner.h"
#include "fpm/dataset/quest_gen.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::ExpectSameResults;
using testutil::MakeDb;
using testutil::MineCanonical;
using testutil::RandomDb;
using testutil::RandomDbSpec;

TEST(PartitionedMinerTest, NameReflectsConfiguration) {
  PartitionOptions o;
  o.num_partitions = 8;
  o.inner_algorithm = Algorithm::kEclat;
  EXPECT_EQ(PartitionedMiner(o).name(), "partition(8xeclat)");
}

TEST(PartitionedMinerTest, TextbookExample) {
  Database db = MakeDb({{0, 1}, {0, 2}, {0, 1, 2}, {1}});
  PartitionOptions o;
  o.num_partitions = 2;
  PartitionedMiner miner(o);
  const auto r = MineCanonical(miner, db, 2);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r[0], (CollectingSink::Entry{{0}, 3}));
  EXPECT_EQ(r[4], (CollectingSink::Entry{{2}, 2}));
}

// Exactness over partition counts, inner algorithms, thread counts and
// random inputs. num_threads 4 mines phase 1 on the pool; the output
// and the candidate count must be exactly those of the sequential run.
struct SweepPoint {
  uint32_t partitions;
  Algorithm algorithm;
  uint32_t threads;
};

// A single-threaded point prints as the (partitions, algorithm) pair the
// sweep had before the thread count joined it, so those test names stay.
void PrintTo(const SweepPoint& p, std::ostream* os) {
  *os << (p.threads == 1
              ? ::testing::PrintToString(
                    std::make_tuple(p.partitions, p.algorithm))
              : ::testing::PrintToString(
                    std::make_tuple(p.partitions, p.algorithm, p.threads)));
}

std::vector<SweepPoint> SweepPoints() {
  std::vector<SweepPoint> points;
  for (uint32_t partitions : {1u, 2u, 3u, 7u, 64u}) {
    for (Algorithm algorithm :
         {Algorithm::kLcm, Algorithm::kEclat, Algorithm::kFpGrowth}) {
      for (uint32_t threads : {1u, 4u}) {
        points.push_back({partitions, algorithm, threads});
      }
    }
  }
  return points;
}

class PartitionSweepTest : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(PartitionSweepTest, MatchesDirectMining) {
  PartitionOptions o;
  o.num_partitions = GetParam().partitions;
  o.inner_algorithm = GetParam().algorithm;
  PartitionedMiner sequential(o);
  o.execution.num_threads = GetParam().threads;
  PartitionedMiner partitioned(o);
  LcmMiner direct;
  for (uint64_t seed : {401ull, 402ull}) {
    RandomDbSpec spec;
    spec.num_transactions = 80;
    spec.num_items = 10;
    spec.seed = seed;
    Database db = RandomDb(spec);
    const std::string where = partitioned.name() + " threads=" +
                              std::to_string(o.execution.num_threads) +
                              " seed=" + std::to_string(seed);
    const auto expected = MineCanonical(direct, db, 5);
    const auto actual = MineCanonical(partitioned, db, 5);
    ExpectSameResults(expected, actual, where);
    // Phase 1 must overshoot or match, never undershoot.
    EXPECT_GE(partitioned.last_candidate_count(), expected.size()) << where;

    // Emission order and phase-1 candidates do not depend on threads.
    CollectingSink emitted;
    CollectingSink reference;
    ASSERT_TRUE(partitioned.Mine(db, 5, &emitted).ok()) << where;
    ASSERT_TRUE(sequential.Mine(db, 5, &reference).ok()) << where;
    EXPECT_EQ(emitted.results(), reference.results()) << where;
    EXPECT_EQ(partitioned.last_candidate_count(),
              sequential.last_candidate_count())
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionSweepTest,
                         ::testing::ValuesIn(SweepPoints()));

TEST(PartitionedMinerTest, MorePartitionsThanTransactions) {
  Database db = MakeDb({{0, 1}, {0, 1}});
  PartitionOptions o;
  o.num_partitions = 50;
  PartitionedMiner miner(o);
  const auto r = MineCanonical(miner, db, 2);
  EXPECT_EQ(r.size(), 3u);
}

TEST(PartitionedMinerTest, WeightedTransactions) {
  DatabaseBuilder b;
  b.AddTransaction({0, 1}, 7);
  b.AddTransaction({1}, 3);
  b.AddTransaction({0}, 2);
  Database db = b.Build();
  PartitionOptions o;
  o.num_partitions = 3;
  PartitionedMiner miner(o);
  const auto r = MineCanonical(miner, db, 7);
  // {0}:9 {1}:10 {0,1}:7
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[1], (CollectingSink::Entry{{0, 1}, 7}));
}

TEST(PartitionedMinerTest, QuestEquivalence) {
  QuestParams p;
  p.num_transactions = 1000;
  p.avg_transaction_len = 8;
  p.avg_pattern_len = 3;
  p.num_items = 60;
  p.num_patterns = 30;
  auto db = GenerateQuest(p);
  ASSERT_TRUE(db.ok());
  LcmMiner direct;
  PartitionOptions o;
  o.num_partitions = 5;
  o.inner_patterns = PatternSet::All();
  PartitionedMiner miner(o);
  const auto expected = MineCanonical(direct, db.value(), 20);
  const auto actual = MineCanonical(miner, db.value(), 20);
  ASSERT_GT(expected.size(), 0u);
  ExpectSameResults(expected, actual, "quest-partitioned");
}

TEST(PartitionedMinerTest, RejectsBadArguments) {
  Database db = MakeDb({{0}});
  PartitionOptions o;
  o.num_partitions = 0;
  PartitionedMiner miner(o);
  CollectingSink sink;
  EXPECT_FALSE(miner.Mine(db, 1, &sink).ok());
  PartitionedMiner ok_miner{PartitionOptions{}};
  EXPECT_FALSE(ok_miner.Mine(db, 0, &sink).ok());
  EXPECT_FALSE(ok_miner.Mine(db, 1, nullptr).ok());
}

TEST(PartitionedMinerTest, EmptyDatabase) {
  PartitionedMiner miner{PartitionOptions{}};
  CollectingSink sink;
  ASSERT_TRUE(miner.Mine(Database(), 1, &sink).ok());
  EXPECT_EQ(sink.size(), 0u);
}

}  // namespace
}  // namespace fpm
