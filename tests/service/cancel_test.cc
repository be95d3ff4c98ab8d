// Cooperative cancellation through the mining kernels: a pre-cancelled
// token stops every cancellation-aware kernel (and the parallel
// drivers above them), a deadline converts to DEADLINE_EXCEEDED within
// a frame or two, and the reference miners simply ignore the token.

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "fpm/algo/itemset_sink.h"
#include "fpm/algo/rules.h"
#include "fpm/common/cancel.h"
#include "fpm/core/mine.h"
#include "fpm/dataset/fimi_io.h"
#include "service/service_test_util.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

class CancelKernelTest : public testing::TestWithParam<Algorithm> {};

TEST_P(CancelKernelTest, PreCancelledTokenStopsTheRun) {
  auto dense = ParseFimi(test::DenseFimiText(/*rows=*/200));
  ASSERT_TRUE(dense.ok());
  // Eclat mines the dense input with bit vectors and the sparse one,
  // whose fill is far below kEclatTidListFillInverse, with tid lists.
  const std::vector<Database> inputs = {*dense, testutil::SparseDb({})};
  for (const Database& db : inputs) {
    CancelToken cancel;
    cancel.RequestCancel();
    MineOptions options;
    options.algorithm = GetParam();
    options.min_support = 2;
    options.cancel = &cancel;
    CollectingSink sink;
    auto stats = Mine(db, options, &sink);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kCancelled);
  }
}

TEST_P(CancelKernelTest, DeadlineConvertsToDeadlineExceeded) {
  // Dense data at minsup 2: the pattern space is astronomically larger
  // than anything a 30 ms budget can enumerate, so the deadline must
  // fire — and the run must wind down well within the 250 ms bound the
  // service promises.
  auto db = ParseFimi(test::DenseFimiText());
  ASSERT_TRUE(db.ok());
  CancelToken cancel;
  cancel.SetTimeout(std::chrono::milliseconds(30));
  MineOptions options;
  options.algorithm = GetParam();
  options.min_support = 2;
  options.cancel = &cancel;
  CountingSink sink;
  const auto start = std::chrono::steady_clock::now();
  auto stats = Mine(*db, options, &sink);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(cancel.deadline_exceeded());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            30 + 250);
}

TEST_P(CancelKernelTest, NestedParallelDriverPropagatesCancellation) {
  auto db = ParseFimi(test::DenseFimiText());
  ASSERT_TRUE(db.ok());
  CancelToken cancel;
  cancel.SetTimeout(std::chrono::milliseconds(30));
  MineOptions options;
  options.algorithm = GetParam();
  options.min_support = 2;
  options.cancel = &cancel;
  options.execution.num_threads = 4;
  CountingSink sink;
  const auto start = std::chrono::steady_clock::now();
  auto stats = Mine(*db, options, &sink);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            30 + 250);
}

INSTANTIATE_TEST_SUITE_P(Kernels, CancelKernelTest,
                         testing::Values(Algorithm::kLcm, Algorithm::kEclat,
                                         Algorithm::kFpGrowth),
                         [](const auto& info) {
                           return std::string(AlgorithmName(info.param));
                         });

// LCM answers closed, maximal and rules queries with its ppc kernel
// (closed_miner.h), which polls the same token once per frame.
void ExpectClosedTasksStop(const CancelToken& cancel, StatusCode want) {
  auto db = ParseFimi(test::DenseFimiText(/*rows=*/200));
  ASSERT_TRUE(db.ok());
  MineOptions options;
  options.algorithm = Algorithm::kLcm;
  options.cancel = &cancel;
  auto miner = CreateMiner(options);
  ASSERT_TRUE(miner.ok()) << miner.status();
  for (const MiningQuery& query :
       {MiningQuery::Closed(2), MiningQuery::Maximal(2)}) {
    CollectingSink sink;
    auto stats = (*miner)->Mine(*db, query, &sink);
    ASSERT_FALSE(stats.ok()) << TaskName(query.task);
    EXPECT_EQ(stats.status().code(), want) << TaskName(query.task);
  }
  std::vector<AssociationRule> rules;
  auto stats = (*miner)->MineRules(*db, MiningQuery::Rules(2, 0.9), &rules);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), want);
}

TEST(CancelClosedKernelTest, PreCancelledTokenStopsEveryClosedTask) {
  CancelToken cancel;
  cancel.RequestCancel();
  ExpectClosedTasksStop(cancel, StatusCode::kCancelled);
}

TEST(CancelClosedKernelTest, ExpiredDeadlineStopsEveryClosedTask) {
  CancelToken cancel;
  cancel.set_deadline(CancelToken::Clock::now() - std::chrono::seconds(1));
  ExpectClosedTasksStop(cancel, StatusCode::kDeadlineExceeded);
}

TEST(CancelReferenceMinerTest, AprioriIgnoresTheToken) {
  auto db = ParseFimi(test::SmallFimiText());
  ASSERT_TRUE(db.ok());
  CancelToken cancel;
  cancel.RequestCancel();
  MineOptions options;
  options.algorithm = Algorithm::kApriori;
  options.min_support = 2;
  options.cancel = &cancel;
  CollectingSink sink;
  auto stats = Mine(*db, options, &sink);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(sink.size(), 0u);
}

TEST(CancelTokenMineTest, UncancelledTokenChangesNothing) {
  auto db = ParseFimi(test::SmallFimiText());
  ASSERT_TRUE(db.ok());
  MineOptions plain;
  plain.min_support = 2;
  CollectingSink baseline;
  ASSERT_TRUE(Mine(*db, plain, &baseline).ok());

  CancelToken cancel;
  MineOptions with_token = plain;
  with_token.cancel = &cancel;
  CollectingSink observed;
  ASSERT_TRUE(Mine(*db, with_token, &observed).ok());
  EXPECT_EQ(observed.results(), baseline.results());
}

}  // namespace
}  // namespace fpm
