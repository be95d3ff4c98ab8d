// Parallel-vs-sequential equivalence: the task-parallel driver must
// emit exactly the itemsets of the sequential kernel it wraps — same
// sets, same supports — at every thread count, and byte-identical
// output order in deterministic mode.

#include <gtest/gtest.h>

#include "fpm/core/mine.h"
#include "fpm/dataset/quest_gen.h"
#include "fpm/dataset/standin_gen.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::ExpectSameResults;
using testutil::MakeDb;
using testutil::MineCanonical;

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
  Support min_support;
};

class ParallelEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelEquivalenceTest, MatchesSequentialOnQuest) {
  const Case c = GetParam();
  const Database db = SmallQuestDb();

  MineOptions options;
  options.algorithm = c.algorithm;
  options.min_support = c.min_support;
  CollectingSink sequential;
  ASSERT_TRUE(Mine(db, options, &sequential).ok());
  sequential.Canonicalize();

  for (uint32_t threads : {1u, 2u, 4u}) {
    options.execution.num_threads = threads;
    CollectingSink parallel;
    Result<MineStats> stats = Mine(db, options, &parallel);
    ASSERT_TRUE(stats.ok()) << AlgorithmName(c.algorithm) << " x" << threads;
    EXPECT_EQ(stats->num_frequent, sequential.results().size());
    parallel.Canonicalize();
    ExpectSameResults(sequential.results(), parallel.results(),
                      std::string(AlgorithmName(c.algorithm)) + " x" +
                          std::to_string(threads) + " (quest)");
  }
}

TEST_P(ParallelEquivalenceTest, MatchesSequentialOnWebDocsStandin) {
  const Case c = GetParam();
  const Database db = SmallWebDocsDb();

  MineOptions options;
  options.algorithm = c.algorithm;
  options.min_support = c.min_support;
  CollectingSink sequential;
  ASSERT_TRUE(Mine(db, options, &sequential).ok());
  sequential.Canonicalize();

  for (uint32_t threads : {2u, 4u}) {
    options.execution.num_threads = threads;
    CollectingSink parallel;
    ASSERT_TRUE(Mine(db, options, &parallel).ok());
    parallel.Canonicalize();
    ExpectSameResults(sequential.results(), parallel.results(),
                      std::string(AlgorithmName(c.algorithm)) + " x" +
                          std::to_string(threads) + " (webdocs)");
  }
}

TEST_P(ParallelEquivalenceTest, NonDeterministicModeSameChecksum) {
  // The streaming merge gives up ordering, never content: the
  // order-insensitive checksum must match the sequential run exactly.
  const Case c = GetParam();
  const Database db = SmallQuestDb();

  MineOptions options;
  options.algorithm = c.algorithm;
  options.min_support = c.min_support;
  CountingSink sequential;
  ASSERT_TRUE(Mine(db, options, &sequential).ok());

  options.execution.num_threads = 4;
  options.execution.deterministic = false;
  CountingSink parallel;
  ASSERT_TRUE(Mine(db, options, &parallel).ok());
  EXPECT_EQ(parallel.count(), sequential.count());
  EXPECT_EQ(parallel.checksum(), sequential.checksum());
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ParallelEquivalenceTest,
    ::testing::Values(Case{Algorithm::kEclat, 8}, Case{Algorithm::kLcm, 8},
                      Case{Algorithm::kFpGrowth, 8}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(AlgorithmName(info.param.algorithm));
    });

TEST(ParallelDeterminismTest, RepeatRunsAreByteIdentical) {
  // deterministic=true promises a reproducible emission order, not just
  // a reproducible set: compare *un*canonicalized results across runs.
  const Database db = SmallQuestDb();
  MineOptions options;
  options.min_support = 8;
  options.execution.num_threads = 4;

  CollectingSink first;
  ASSERT_TRUE(Mine(db, options, &first).ok());
  for (int run = 0; run < 3; ++run) {
    CollectingSink again;
    ASSERT_TRUE(Mine(db, options, &again).ok());
    ASSERT_EQ(first.results().size(), again.results().size());
    EXPECT_TRUE(first.results() == again.results())
        << "run " << run << " emitted a different order";
  }
}

TEST(ParallelMinerTest, RandomDatabasesMatchSequential) {
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

    options.execution.num_threads = 3;
    CollectingSink parallel;
    ASSERT_TRUE(Mine(db, options, &parallel).ok());
    parallel.Canonicalize();
    ExpectSameResults(sequential.results(), parallel.results(),
                      "random seed " + std::to_string(seed));
  }
}

TEST(ParallelMinerTest, EmptyDatabase) {
  MineOptions options;
  options.min_support = 1;
  options.execution.num_threads = 2;
  CollectingSink sink;
  Result<MineStats> stats = Mine(Database(), options, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(stats->num_frequent, 0u);
}

TEST(ParallelMinerTest, SupportAboveEverythingEmitsNothing) {
  Database db = MakeDb({{0, 1}, {0, 1}});
  MineOptions options;
  options.min_support = 3;
  options.execution.num_threads = 2;
  CollectingSink sink;
  ASSERT_TRUE(Mine(db, options, &sink).ok());
  EXPECT_EQ(sink.size(), 0u);
}

TEST(ParallelMinerTest, RejectsZeroThreads) {
  MineOptions options;
  options.min_support = 1;
  options.execution.num_threads = 0;
  Database db = MakeDb({{0}});
  CollectingSink sink;
  const Status s = Mine(db, options, &sink).status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ParallelMinerTest, NameReflectsConfiguration) {
  MineOptions options;
  options.algorithm = Algorithm::kLcm;
  auto kernel = CreateMiner(options.algorithm, options.patterns);
  ASSERT_TRUE(kernel.ok());
  const std::string kernel_name = (*kernel)->name();

  // One thread runs the kernel itself; more wrap it in the parallel
  // driver, whose name carries the thread count and the merge mode.
  auto sequential = CreateMiner(options);
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ((*sequential)->name(), kernel_name);
  options.execution.num_threads = 4;
  auto parallel = CreateMiner(options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ((*parallel)->name(), "nested(4x" + kernel_name + ")");
  options.execution.deterministic = false;
  auto nondet = CreateMiner(options);
  ASSERT_TRUE(nondet.ok());
  EXPECT_EQ((*nondet)->name(), "nested(4x" + kernel_name + ",nondet)");
}

}  // namespace
}  // namespace fpm
