// Distributed SON pipeline equivalence: running phase 1 (per-shard
// mine at the scaled threshold), the candidate merge, phase 2
// (per-shard exact counts) and the final filter through the shard
// functions of fpm/core/partition.h — the ones fpmd's shard_query runs
// — must produce exactly the canonical frequent set a direct
// single-machine mine produces, for any shard count and inner kernel,
// including shards that are empty or hold every transaction, and
// weighted inputs. Malformed wire candidates are errors, never aborts.

#include "fpm/core/partition.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/core/mine.h"
#include "fpm/dataset/quest_gen.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::ExpectSameResults;
using testutil::MakeDb;
using testutil::MineCanonical;
using testutil::RandomDb;
using testutil::RandomDbSpec;

/// Runs the full coordinator-side pipeline in-process over k shards,
/// mining each shard with `algorithm` under `patterns`. `num_candidates`
/// (optional) receives the size of phase 1's merged candidate list.
std::vector<CollectingSink::Entry> MineViaShards(
    const Database& db, Support min_support, uint32_t k,
    Algorithm algorithm = Algorithm::kLcm,
    PatternSet patterns = PatternSet::None(),
    size_t* num_candidates = nullptr) {
  std::vector<std::vector<CollectingSink::Entry>> locals;
  for (uint32_t p = 0; p < k; ++p) {
    Result<std::vector<CollectingSink::Entry>> local =
        MineShardPartition(db, {p, k}, min_support, algorithm, patterns);
    EXPECT_TRUE(local.ok()) << "shard " << p << ": " << local.status();
    locals.push_back(std::move(local).value());
  }
  const std::vector<Itemset> candidates =
      MergeShardCandidates(std::move(locals));
  if (num_candidates != nullptr) *num_candidates = candidates.size();
  std::vector<std::vector<Support>> per_shard;
  for (uint32_t p = 0; p < k; ++p) {
    Result<std::vector<Support>> counts =
        CountShardPartition(db, {p, k}, candidates);
    EXPECT_TRUE(counts.ok()) << "shard " << p << ": " << counts.status();
    per_shard.push_back(std::move(counts).value());
  }
  return MergeShardCounts(candidates, per_shard, min_support);
}

std::vector<CollectingSink::Entry> DirectCanonical(const Database& db,
                                                   Support min_support) {
  Result<std::unique_ptr<Miner>> miner =
      CreateMiner(Algorithm::kLcm, PatternSet::None());
  EXPECT_TRUE(miner.ok()) << miner.status();
  return MineCanonical(**miner, db, min_support);
}

// Exactness over shard counts and inner kernels, each with no pattern
// and with every applicable one: the answer equals direct mining, and
// phase 1's merged candidates number at least the answer (phase 1 may
// overshoot, never undershoot).
struct SweepPoint {
  uint32_t shards;
  Algorithm algorithm;
  bool all_patterns;
};

std::vector<SweepPoint> SweepPoints() {
  std::vector<SweepPoint> points;
  for (uint32_t shards : {1u, 2u, 3u, 7u, 64u}) {
    for (Algorithm algorithm :
         {Algorithm::kLcm, Algorithm::kEclat, Algorithm::kFpGrowth}) {
      for (bool all_patterns : {false, true}) {
        points.push_back({shards, algorithm, all_patterns});
      }
    }
  }
  return points;
}

class ShardSweepTest : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(ShardSweepTest, MatchesDirectMining) {
  const SweepPoint point = GetParam();
  const PatternSet patterns = point.all_patterns
                                  ? PatternSet::ApplicableTo(point.algorithm)
                                  : PatternSet::None();
  for (uint64_t seed : {401ull, 402ull}) {
    RandomDbSpec spec;
    spec.num_transactions = 80;
    spec.num_items = 10;
    spec.seed = seed;
    const Database db = RandomDb(spec);
    const std::string where = "seed=" + std::to_string(seed);
    const auto expected = DirectCanonical(db, 5);
    size_t candidates = 0;
    ExpectSameResults(expected,
                      MineViaShards(db, 5, point.shards, point.algorithm,
                                    patterns, &candidates),
                      where);
    EXPECT_GE(candidates, expected.size()) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardSweepTest, ::testing::ValuesIn(SweepPoints()),
    [](const ::testing::TestParamInfo<SweepPoint>& info) {
      return std::to_string(info.param.shards) + "x" +
             AlgorithmName(info.param.algorithm) +
             (info.param.all_patterns ? "_all" : "_none");
    });

TEST(ShardExecTest, BuildShardPartitionTilesTheDatabase) {
  const Database db = RandomDb({.num_transactions = 31, .seed = 7});
  for (uint32_t k : {1u, 2u, 3u, 5u, 31u, 40u}) {
    size_t total = 0;
    Support weight = 0;
    for (uint32_t p = 0; p < k; ++p) {
      Support part_weight = 0;
      const Database part = BuildShardPartition(db, {p, k}, &part_weight);
      total += part.num_transactions();
      weight += part_weight;
    }
    EXPECT_EQ(total, db.num_transactions()) << "k=" << k;
    EXPECT_EQ(weight, db.total_weight()) << "k=" << k;
  }
}

TEST(ShardExecTest, PipelineMatchesDirectMineSmallLiteral) {
  DatabaseBuilder weighted;
  weighted.AddTransaction({0, 1}, 7);
  weighted.AddTransaction({1}, 3);
  weighted.AddTransaction({0}, 2);
  const std::vector<Database> inputs = {
      MakeDb({{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3, 4}, {4}, {2, 4}}),
      weighted.Build(), Database()};
  for (size_t input = 0; input < inputs.size(); ++input) {
    const Database& db = inputs[input];
    for (Support s : {1, 2, 3, 7}) {
      const auto direct = DirectCanonical(db, s);
      for (uint32_t k : {1u, 2u, 3u, 5u}) {
        ExpectSameResults(direct, MineViaShards(db, s, k),
                          "input=" + std::to_string(input) +
                              " s=" + std::to_string(s) +
                              " k=" + std::to_string(k));
      }
    }
  }
}

TEST(ShardExecTest, PipelineMatchesDirectMineRandom) {
  std::vector<std::pair<Database, Support>> inputs;
  for (uint64_t seed : {1u, 2u, 3u}) {
    RandomDbSpec spec;
    spec.num_transactions = 60;
    spec.num_items = 10;
    spec.avg_len = 5.0;
    spec.seed = seed;
    inputs.emplace_back(RandomDb(spec), 4);
  }
  QuestParams p;
  p.num_transactions = 1000;
  p.avg_transaction_len = 8;
  p.avg_pattern_len = 3;
  p.num_items = 60;
  p.num_patterns = 30;
  Result<Database> quest = GenerateQuest(p);
  ASSERT_TRUE(quest.ok()) << quest.status();
  inputs.emplace_back(std::move(quest).value(), 20);

  for (size_t input = 0; input < inputs.size(); ++input) {
    const auto& [db, min_support] = inputs[input];
    const auto direct = DirectCanonical(db, min_support);
    ASSERT_GT(direct.size(), 0u) << "input=" << input;
    for (uint32_t k : {2u, 3u, 5u}) {
      ExpectSameResults(direct, MineViaShards(db, min_support, k),
                        "input=" + std::to_string(input) +
                            " k=" + std::to_string(k));
    }
  }
}

TEST(ShardExecTest, MoreShardsThanTransactionsLeavesEmptyShards) {
  // k > n means some slices are empty; they contribute nothing and the
  // merge must still be exact.
  const Database db = MakeDb({{1, 2}, {1, 2}, {1, 3}});
  const auto direct = DirectCanonical(db, 2);
  ExpectSameResults(direct, MineViaShards(db, 2, 8), "k=8 over n=3");
}

TEST(ShardExecTest, EmptyShardMinesToNothing) {
  const Database db = MakeDb({{1, 2}, {1, 2}});
  // Slice 3 of 5 over 2 transactions is [2*3/5, 2*4/5) = [1, 1): empty.
  Result<std::vector<CollectingSink::Entry>> local = MineShardPartition(
      db, {3, 5}, 1, Algorithm::kLcm, PatternSet::None());
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_TRUE(local->empty());
}

TEST(ShardExecTest, CountShardPartitionNormalizesCandidateOrder) {
  // Wire candidates arrive unsorted; counting must normalize them.
  const Database db = MakeDb({{1, 2, 3}, {1, 2}, {2, 3}});
  const std::vector<Itemset> candidates = {{2, 1}, {3, 2}, {2}};
  Result<std::vector<Support>> counts =
      CountShardPartition(db, {0, 1}, candidates);
  ASSERT_TRUE(counts.ok()) << counts.status();
  EXPECT_EQ(*counts, (std::vector<Support>{2, 2, 3}));
}

TEST(ShardExecTest, InvalidSliceError) {
  const Database db = MakeDb({{1}});
  Result<std::vector<CollectingSink::Entry>> bad = MineShardPartition(
      db, {3, 3}, 1, Algorithm::kLcm, PatternSet::None());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(),
            "shard slice index 3 out of range for count 3");
}

TEST(ShardExecTest, ZeroSupportError) {
  const Database db = MakeDb({{1}});
  Result<std::vector<CollectingSink::Entry>> bad = MineShardPartition(
      db, {0, 1}, 0, Algorithm::kLcm, PatternSet::None());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "min_support must be >= 1");
}

TEST(ShardExecTest, EmptyCandidateError) {
  const Database db = MakeDb({{1}});
  Result<std::vector<Support>> bad =
      CountShardPartition(db, {0, 1}, {{1}, {}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "candidate 1 is empty");
}

TEST(ShardExecTest, DuplicateCandidateError) {
  // {2,1} is {1,2} once sorted: a wire duplicate must come back as an
  // error the daemon can send, not reach the trie's insertion check.
  const Database db = MakeDb({{1, 2}});
  Result<std::vector<Support>> bad =
      CountShardPartition(db, {0, 1}, {{1, 2}, {2, 1}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "candidate 1 duplicates candidate 0");
}

TEST(ShardExecTest, RepeatedItemCandidateError) {
  const Database db = MakeDb({{1, 2}});
  Result<std::vector<Support>> bad =
      CountShardPartition(db, {0, 1}, {{2}, {1, 2, 1}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "candidate 1 repeats item 1");
}

TEST(ShardExecTest, MergeShardCandidatesDedupesAndSorts) {
  std::vector<std::vector<CollectingSink::Entry>> locals(2);
  locals[0] = {{{2, 3}, 5}, {{1}, 7}};
  locals[1] = {{{1}, 4}, {{1, 2}, 3}};
  const std::vector<Itemset> merged = MergeShardCandidates(std::move(locals));
  EXPECT_EQ(merged,
            (std::vector<Itemset>{{1}, {1, 2}, {2, 3}}));
}

TEST(ShardExecTest, MergeShardCountsFiltersAtGlobalThreshold) {
  const std::vector<Itemset> candidates = {{1}, {2}, {3}};
  const std::vector<std::vector<Support>> per_shard = {{3, 1, 0},
                                                       {2, 1, 1}};
  const std::vector<CollectingSink::Entry> kept =
      MergeShardCounts(candidates, per_shard, 2);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], (CollectingSink::Entry{{1}, 5}));
  EXPECT_EQ(kept[1], (CollectingSink::Entry{{2}, 2}));
}

}  // namespace
}  // namespace fpm
