// Parallel-vs-sequential equivalence: the class-parallel driver must
// emit exactly the itemsets of the sequential kernel it wraps at every
// thread count, with byte-identical emission order in deterministic
// mode however the class tasks were scheduled.

#include "fpm/parallel/nested_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fpm/core/mine.h"
#include "fpm/dataset/quest_gen.h"
#include "fpm/dataset/standin_gen.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::ExpectSameResults;
using testutil::MakeDb;

Database SmallQuestDb() {
  QuestParams p;
  p.num_transactions = 400;
  p.avg_transaction_len = 8;
  p.avg_pattern_len = 3;
  p.num_items = 60;
  p.num_patterns = 40;
  auto db = GenerateQuest(p);
  EXPECT_TRUE(db.ok());
  return db.value();
}

Database SmallWebDocsDb() {
  WebDocsLikeParams p;
  p.num_transactions = 300;
  p.vocabulary = 80;
  p.avg_length = 10;
  p.num_topics = 6;
  p.topic_vocabulary = 20;
  auto db = GenerateWebDocsLike(p);
  EXPECT_TRUE(db.ok());
  return db.value();
}

struct Case {
  Algorithm algorithm;
  bool all_patterns;  // exercise the tuned kernel code paths too
};

NestedParallelMiner MakeNested(const Case& c, uint32_t threads,
                               bool deterministic = true) {
  NestedParallelMinerOptions no;
  no.execution.num_threads = threads;
  no.execution.deterministic = deterministic;
  no.kernel_name = std::string(AlgorithmName(c.algorithm));
  no.factory = [c] {
    return CreateMiner(c.algorithm,
                       c.all_patterns ? PatternSet::ApplicableTo(c.algorithm)
                                      : PatternSet::None());
  };
  return NestedParallelMiner(std::move(no));
}

// Mines `db` with the sequential kernel of `c` and with the parallel
// driver at 1, 2, 4 and 8 threads; every run must report and emit the
// same itemsets with the same supports.
void ExpectMatchesSequentialAtAllThreadCounts(const Case& c,
                                              const Database& db,
                                              Support min_support) {
  Result<std::unique_ptr<Miner>> kernel = CreateMiner(
      c.algorithm, c.all_patterns ? PatternSet::ApplicableTo(c.algorithm)
                                  : PatternSet::None());
  ASSERT_TRUE(kernel.ok());
  CollectingSink sequential;
  ASSERT_TRUE((*kernel)->Mine(db, min_support, &sequential).ok());
  sequential.Canonicalize();

  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    NestedParallelMiner miner = MakeNested(c, threads);
    CollectingSink nested;
    Result<MineStats> stats = miner.Mine(db, min_support, &nested);
    ASSERT_TRUE(stats.ok()) << miner.name();
    EXPECT_EQ(stats->num_frequent, sequential.results().size())
        << miner.name();
    nested.Canonicalize();
    ExpectSameResults(sequential.results(), nested.results(), miner.name());
  }
}

class NestedEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(NestedEquivalenceTest, MatchesSequentialAtAllThreadCounts) {
  ExpectMatchesSequentialAtAllThreadCounts(GetParam(), SmallQuestDb(), 8);
}

TEST_P(NestedEquivalenceTest, WebDocsMatchesSequentialAtAllThreadCounts) {
  // A second input shape: long, topic-clustered transactions over a
  // Zipf-skewed vocabulary.
  ExpectMatchesSequentialAtAllThreadCounts(GetParam(), SmallWebDocsDb(), 6);
}

TEST_P(NestedEquivalenceTest, DeterministicOrderIdenticalAcrossThreadCounts) {
  // deterministic=true promises one emission order for every thread
  // count — the inline 1-thread order — however the class tasks were
  // scheduled. Compare *un*canonicalized results.
  const Case c = GetParam();
  const Database db = SmallWebDocsDb();
  const Support min_support = 6;

  CollectingSink reference;
  {
    NestedParallelMiner miner = MakeNested(c, /*threads=*/1);
    ASSERT_TRUE(miner.Mine(db, min_support, &reference).ok());
  }
  ASSERT_GT(reference.results().size(), 0u);

  for (uint32_t threads : {2u, 4u, 8u}) {
    for (int run = 0; run < 2; ++run) {
      NestedParallelMiner miner = MakeNested(c, threads);
      CollectingSink again;
      ASSERT_TRUE(miner.Mine(db, min_support, &again).ok());
      ASSERT_EQ(reference.results().size(), again.results().size())
          << miner.name();
      EXPECT_TRUE(reference.results() == again.results())
          << miner.name() << " run " << run
          << " emitted a different order";
    }
  }
}

TEST_P(NestedEquivalenceTest, NonDeterministicModeSameChecksum) {
  const Case c = GetParam();
  const Database db = SmallQuestDb();
  const Support min_support = 8;

  MineOptions options;
  options.algorithm = c.algorithm;
  options.min_support = min_support;
  CountingSink sequential;
  ASSERT_TRUE(Mine(db, options, &sequential).ok());

  NestedParallelMiner miner =
      MakeNested(Case{c.algorithm, false}, /*threads=*/4,
                 /*deterministic=*/false);
  CountingSink nested;
  ASSERT_TRUE(miner.Mine(db, min_support, &nested).ok());
  EXPECT_EQ(nested.count(), sequential.count());
  EXPECT_EQ(nested.checksum(), sequential.checksum());
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, NestedEquivalenceTest,
    ::testing::Values(Case{Algorithm::kEclat, false},
                      Case{Algorithm::kEclat, true},
                      Case{Algorithm::kLcm, false},
                      Case{Algorithm::kLcm, true},
                      Case{Algorithm::kFpGrowth, false},
                      Case{Algorithm::kFpGrowth, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(AlgorithmName(info.param.algorithm)) +
             (info.param.all_patterns ? "AllPatterns" : "Plain");
    });

TEST(NestedMinerTest, RandomDatabasesMatchSequential) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    testutil::RandomDbSpec spec;
    spec.num_transactions = 60;
    spec.num_items = 12;
    spec.avg_len = 5.0;
    spec.seed = seed;
    const Database db = RandomDb(spec);

    MineOptions options;
    options.min_support = 2;
    options.algorithm = Algorithm::kEclat;
    CollectingSink sequential;
    ASSERT_TRUE(Mine(db, options, &sequential).ok());
    sequential.Canonicalize();

    NestedParallelMiner miner =
        MakeNested(Case{Algorithm::kEclat, false}, /*threads=*/3);
    CollectingSink nested;
    ASSERT_TRUE(miner.Mine(db, 2, &nested).ok());
    nested.Canonicalize();
    ExpectSameResults(sequential.results(), nested.results(),
                      "random seed " + std::to_string(seed));
  }
}

TEST(NestedMinerTest, StreamingBatchesListTheOrderedSet) {
  // Items 0..13 in each of 40 transactions, and item i < 13 alone in
  // 13 - i more, so item 13 is the least frequent: its class emits every
  // itemset holding it, 2^13 = 8192 of them, which the streaming merge
  // hands to the sink in more than one batch of 4,096.
  DatabaseBuilder b;
  std::vector<Item> block(14);
  for (Item i = 0; i < 14; ++i) block[i] = i;
  for (int t = 0; t < 40; ++t) b.AddTransaction(block);
  for (Item i = 0; i < 13; ++i) {
    for (Item k = i; k < 13; ++k) b.AddTransaction({i});
  }
  const Database db = b.Build();
  for (Algorithm algorithm :
       {Algorithm::kLcm, Algorithm::kEclat, Algorithm::kFpGrowth}) {
    const Case c{algorithm, false};
    NestedParallelMiner ordered = MakeNested(c, /*threads=*/4);
    CollectingSink want;
    ASSERT_TRUE(ordered.Mine(db, 40, &want).ok());
    want.Canonicalize();
    ASSERT_EQ(want.results().size(), 16383u);
    size_t owned = 0;
    for (const auto& [items, support] : want.results()) {
      owned += std::find(items.begin(), items.end(), Item{13}) != items.end();
    }
    ASSERT_EQ(owned, 8192u);

    NestedParallelMiner streaming =
        MakeNested(c, /*threads=*/4, /*deterministic=*/false);
    CollectingSink got;
    Result<MineStats> stats = streaming.Mine(db, 40, &got);
    ASSERT_TRUE(stats.ok()) << streaming.name();
    EXPECT_EQ(stats->num_frequent, 16383u) << streaming.name();
    got.Canonicalize();
    ExpectSameResults(want.results(), got.results(), streaming.name());
  }
}

TEST(NestedMinerTest, EmptyDatabase) {
  NestedParallelMiner miner =
      MakeNested(Case{Algorithm::kLcm, false}, /*threads=*/2);
  CollectingSink sink;
  Result<MineStats> stats = miner.Mine(Database(), 1, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(stats->num_frequent, 0u);
}

TEST(NestedMinerTest, SupportAboveEverythingEmitsNothing) {
  NestedParallelMiner miner =
      MakeNested(Case{Algorithm::kLcm, false}, /*threads=*/2);
  Database db = MakeDb({{0, 1}, {0, 1}});
  CollectingSink sink;
  ASSERT_TRUE(miner.Mine(db, 3, &sink).ok());
  EXPECT_EQ(sink.size(), 0u);
}

TEST(NestedMinerTest, RejectsZeroThreads) {
  NestedParallelMinerOptions no;
  no.execution.num_threads = 0;
  no.factory = [] { return CreateMiner(Algorithm::kLcm, PatternSet::None()); };
  NestedParallelMiner miner(std::move(no));
  Database db = MakeDb({{0}});
  CollectingSink sink;
  const Status s = miner.Mine(db, 1, &sink).status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(NestedMinerTest, RejectsMissingFactory) {
  NestedParallelMinerOptions no;
  no.execution.num_threads = 2;
  NestedParallelMiner miner(std::move(no));
  Database db = MakeDb({{0}});
  CollectingSink sink;
  const Status s = miner.Mine(db, 1, &sink).status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(NestedMinerTest, PropagatesFactoryErrors) {
  NestedParallelMinerOptions no;
  no.execution.num_threads = 2;
  no.factory = []() -> Result<std::unique_ptr<Miner>> {
    return Status::Internal("factory failure");
  };
  NestedParallelMiner miner(std::move(no));
  Database db = MakeDb({{0, 1}, {0, 1}});
  CollectingSink sink;
  const Status s = miner.Mine(db, 1, &sink).status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(NestedMinerTest, NameReflectsConfiguration) {
  NestedParallelMinerOptions no;
  no.execution.num_threads = 4;
  no.kernel_name = "lcm";
  no.factory = [] { return CreateMiner(Algorithm::kLcm, PatternSet::None()); };
  EXPECT_EQ(NestedParallelMiner(no).name(), "nested(4xlcm)");
  no.execution.deterministic = false;
  EXPECT_EQ(NestedParallelMiner(no).name(), "nested(4xlcm,nondet)");
}

}  // namespace
}  // namespace fpm
