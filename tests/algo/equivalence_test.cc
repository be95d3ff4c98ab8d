// The central property suite: every miner, under every pattern
// configuration, must produce exactly the same frequent itemsets with
// exactly the same supports as the brute-force oracle, on a sweep of
// random and structured databases.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "fpm/algo/apriori.h"
#include "fpm/algo/bruteforce.h"
#include "fpm/algo/eclat/eclat_miner.h"
#include "fpm/algo/fpgrowth/fpgrowth_miner.h"
#include "fpm/algo/lcm/lcm_miner.h"
#include "fpm/dataset/quest_gen.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::ExpectSameResults;
using testutil::MineCanonical;
using testutil::RandomDb;
using testutil::RandomDbSpec;

// ---------------------------------------------------------------------
// All LCM pattern combinations (2^5 = 32) against the oracle.

class LcmConfigTest : public ::testing::TestWithParam<int> {};

LcmOptions LcmFromMask(int mask) {
  LcmOptions o;
  o.lexicographic_order = mask & 1;
  o.bucket_aggregation = mask & 2;
  o.counter_compaction = mask & 4;
  o.tiling = mask & 8;
  o.wavefront_prefetch = mask & 16;
  return o;
}

TEST_P(LcmConfigTest, MatchesOracleOnRandomDbs) {
  LcmMiner miner(LcmFromMask(GetParam()));
  BruteForceMiner oracle;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RandomDbSpec spec;
    spec.seed = seed;
    spec.num_transactions = 40;
    spec.num_items = 9;
    Database db = RandomDb(spec);
    const auto expected = MineCanonical(oracle, db, 3);
    const auto actual = MineCanonical(miner, db, 3);
    ExpectSameResults(expected, actual,
                      miner.name() + " seed=" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatternMasks, LcmConfigTest,
                         ::testing::Range(0, 32));

// ---------------------------------------------------------------------
// All Eclat configurations: {lex} x {escape} x {popcount strategies}, each
// on dense inputs (bit vectors) and on sparse ones whose fill is below
// kEclatTidListFillInverse (tid lists), unweighted and weighted. So every
// configuration runs both layouts. The brute-force oracle checks the
// dense inputs; the sparse ones, too wide for it, are checked against
// LCM's listing.

enum class EclatInput { kDense, kDenseWeighted, kSparse, kSparseWeighted };

void PrintTo(EclatInput input, std::ostream* os) {
  static constexpr const char* kNames[] = {"dense", "dense_weighted",
                                           "sparse", "sparse_weighted"};
  *os << kNames[static_cast<int>(input)];
}

class EclatConfigTest
    : public ::testing::TestWithParam<
          std::tuple<bool, bool, PopcountStrategy, EclatInput>> {};

TEST_P(EclatConfigTest, MatchesReference) {
  EclatOptions o;
  o.lexicographic_order = std::get<0>(GetParam());
  o.zero_escaping = std::get<1>(GetParam());
  o.popcount = std::get<2>(GetParam());
  const EclatInput input = std::get<3>(GetParam());
  if (!PopcountStrategyAvailable(o.popcount)) {
    GTEST_SKIP() << "strategy unavailable";
  }
  const bool sparse = input == EclatInput::kSparse ||
                      input == EclatInput::kSparseWeighted;
  const bool weighted = input == EclatInput::kDenseWeighted ||
                        input == EclatInput::kSparseWeighted;
  EclatMiner miner(o);
  BruteForceMiner oracle;
  LcmMiner lcm;
  Miner& reference = sparse ? static_cast<Miner&>(lcm) : oracle;
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    Database db;
    Support min_support = 0;
    if (sparse) {
      db = testutil::SparseDb(
          {.max_weight = weighted ? 3u : 1u, .seed = seed});
      min_support = weighted ? 6 : 3;
    } else {
      RandomDbSpec spec;
      spec.seed = seed;
      spec.num_transactions = 50;
      spec.num_items = 8;
      spec.max_weight = weighted ? 3 : 1;
      db = RandomDb(spec);
      min_support = weighted ? 8 : 4;
    }
    const std::string where = miner.name() + " seed=" + std::to_string(seed);
    CollectingSink sink;
    Result<MineStats> stats = miner.Mine(db, min_support, &sink);
    ASSERT_TRUE(stats.ok()) << where;
    sink.Canonicalize();
    ExpectSameResults(MineCanonical(reference, db, min_support),
                      sink.results(), where);
    const testutil::EclatLayoutBytes bytes =
        testutil::EclatFootprints(db, min_support);
    EXPECT_EQ(stats->peak_structure_bytes,
              sparse ? bytes.tid_lists : bytes.bit_vectors)
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, EclatConfigTest,
    ::testing::Combine(
        ::testing::Bool(), ::testing::Bool(),
        ::testing::Values(PopcountStrategy::kLut16, PopcountStrategy::kSwar,
                          PopcountStrategy::kAvx2,
                          PopcountStrategy::kAuto),
        ::testing::Values(EclatInput::kDense, EclatInput::kDenseWeighted,
                          EclatInput::kSparse,
                          EclatInput::kSparseWeighted)));

// ---------------------------------------------------------------------
// All FP-Growth configurations (2^4 = 16; dfs_relayout implies compact).

class FpGrowthConfigTest : public ::testing::TestWithParam<int> {};

TEST_P(FpGrowthConfigTest, MatchesOracleOnRandomDbs) {
  const int mask = GetParam();
  FpGrowthOptions o;
  o.lexicographic_order = mask & 1;
  o.node_compaction = mask & 2;
  o.dfs_relayout = mask & 4;
  o.software_prefetch = mask & 8;
  FpGrowthMiner miner(o);
  BruteForceMiner oracle;
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    RandomDbSpec spec;
    spec.seed = seed;
    spec.num_transactions = 45;
    spec.num_items = 9;
    Database db = RandomDb(spec);
    const auto expected = MineCanonical(oracle, db, 3);
    const auto actual = MineCanonical(miner, db, 3);
    ExpectSameResults(expected, actual,
                      miner.name() + " seed=" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatternMasks, FpGrowthConfigTest,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------------------
// Apriori against the oracle.

TEST(AprioriEquivalenceTest, MatchesOracleOnRandomDbs) {
  AprioriMiner miner;
  BruteForceMiner oracle;
  for (uint64_t seed = 31; seed <= 35; ++seed) {
    RandomDbSpec spec;
    spec.seed = seed;
    spec.num_transactions = 40;
    spec.num_items = 10;
    Database db = RandomDb(spec);
    const auto expected = MineCanonical(oracle, db, 3);
    const auto actual = MineCanonical(miner, db, 3);
    ExpectSameResults(expected, actual,
                      "apriori seed=" + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------
// Cross-check the three paper kernels against each other on a larger,
// structured (Quest) database where brute force is infeasible, over a
// sweep of support thresholds.

class CrossMinerQuestTest : public ::testing::TestWithParam<Support> {};

TEST_P(CrossMinerQuestTest, AllMinersAgreeOnQuestData) {
  const Support min_support = GetParam();
  QuestParams p;
  p.num_transactions = 800;
  p.avg_transaction_len = 8;
  p.avg_pattern_len = 3;
  p.num_items = 60;
  p.num_patterns = 40;
  auto dbr = GenerateQuest(p);
  ASSERT_TRUE(dbr.ok());
  const Database& db = dbr.value();

  LcmMiner lcm_base{LcmOptions{}}, lcm_all{LcmOptions::All()};
  EclatMiner eclat_base{EclatOptions{}}, eclat_all{EclatOptions::All()};
  FpGrowthMiner fpg_base{FpGrowthOptions{}}, fpg_all{FpGrowthOptions::All()};
  AprioriMiner apriori;

  const auto reference = MineCanonical(lcm_base, db, min_support);
  ASSERT_GT(reference.size(), 0u);
  ExpectSameResults(reference, MineCanonical(lcm_all, db, min_support),
                    "lcm-all");
  ExpectSameResults(reference, MineCanonical(eclat_base, db, min_support),
                    "eclat-base");
  ExpectSameResults(reference, MineCanonical(eclat_all, db, min_support),
                    "eclat-all");
  ExpectSameResults(reference, MineCanonical(fpg_base, db, min_support),
                    "fpgrowth-base");
  ExpectSameResults(reference, MineCanonical(fpg_all, db, min_support),
                    "fpgrowth-all");
  ExpectSameResults(reference, MineCanonical(apriori, db, min_support),
                    "apriori");
}

INSTANTIATE_TEST_SUITE_P(SupportSweep, CrossMinerQuestTest,
                         ::testing::Values(8, 20, 60, 200),
                         [](const auto& info) {
                           return "support" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Degenerate inputs every miner must survive.

template <typename M>
std::unique_ptr<Miner> Make() {
  return std::make_unique<M>();
}

// Wraps the factory so that gtest prints the miner's name, not the
// factory's address, which moves with every process under ASLR.
struct MinerFactory {
  std::unique_ptr<Miner> (*make)();
};

void PrintTo(const MinerFactory& factory, std::ostream* os) {
  *os << factory.make()->name();
}

class DegenerateInputTest : public ::testing::TestWithParam<MinerFactory> {};

TEST_P(DegenerateInputTest, EmptyDatabase) {
  auto miner = GetParam().make();
  CollectingSink sink;
  ASSERT_TRUE(miner->Mine(Database(), 1, &sink).ok());
  EXPECT_EQ(sink.size(), 0u);
}

TEST_P(DegenerateInputTest, SingleTransaction) {
  auto miner = GetParam().make();
  DatabaseBuilder b;
  b.AddTransaction({2, 5, 7});
  CollectingSink sink;
  ASSERT_TRUE(miner->Mine(b.Build(), 1, &sink).ok());
  EXPECT_EQ(sink.size(), 7u);
}

TEST_P(DegenerateInputTest, SingleItemManyTimes) {
  auto miner = GetParam().make();
  DatabaseBuilder b;
  for (int i = 0; i < 20; ++i) b.AddTransaction({3});
  CollectingSink sink;
  ASSERT_TRUE(miner->Mine(b.Build(), 20, &sink).ok());
  ASSERT_EQ(sink.size(), 1u);
  sink.Canonicalize();
  EXPECT_EQ(sink.results()[0], (CollectingSink::Entry{{3}, 20}));
}

TEST_P(DegenerateInputTest, AllTransactionsIdentical) {
  auto miner = GetParam().make();
  DatabaseBuilder b;
  for (int i = 0; i < 10; ++i) b.AddTransaction({1, 2, 3});
  CollectingSink sink;
  ASSERT_TRUE(miner->Mine(b.Build(), 10, &sink).ok());
  EXPECT_EQ(sink.size(), 7u);
}

TEST_P(DegenerateInputTest, NullSinkRejected) {
  auto miner = GetParam().make();
  DatabaseBuilder b;
  b.AddTransaction({0});
  EXPECT_FALSE(miner->Mine(b.Build(), 1, nullptr).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllMiners, DegenerateInputTest,
    ::testing::Values(MinerFactory{&Make<LcmMiner>},
                      MinerFactory{&Make<EclatMiner>},
                      MinerFactory{&Make<FpGrowthMiner>},
                      MinerFactory{&Make<AprioriMiner>},
                      MinerFactory{&Make<BruteForceMiner>}),
    [](const auto& info) { return info.param.make()->name(); });

}  // namespace
}  // namespace fpm
