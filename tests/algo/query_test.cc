// The MiningQuery task surface: parse/validate, the Miner::Mine(query)
// dispatch (closed/maximal answers must equal the postprocess
// reference, the LCM native closed path must equal the generic one),
// and MineRules / GenerateRulesFromClosed (the non-redundant closed
// rule basis must agree with full-listing rule generation).

#include "fpm/algo/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fpm/algo/eclat/eclat_miner.h"
#include "fpm/algo/lcm/lcm_miner.h"
#include "fpm/algo/postprocess.h"
#include "fpm/algo/rules.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::ExpectSameResults;
using testutil::MakeDb;
using testutil::MineClosed;
using testutil::MineMaximal;
using testutil::RandomDb;
using testutil::RandomDbSpec;
using Entry = CollectingSink::Entry;

std::vector<Entry> MineQuery(Miner& miner, const Database& db,
                             const MiningQuery& query) {
  CollectingSink sink;
  auto stats = miner.Mine(db, query, &sink);
  EXPECT_TRUE(stats.ok()) << stats.status();
  if (stats.ok()) {
    EXPECT_EQ(stats->num_frequent, sink.results().size())
        << TaskName(query.task);
  }
  return sink.results();
}

TEST(MiningQueryTest, TaskNamesRoundTripThroughParseTask) {
  for (int t = 0; t < kNumMiningTasks; ++t) {
    const MiningTask task = static_cast<MiningTask>(t);
    auto parsed = ParseTask(TaskName(task));
    ASSERT_TRUE(parsed.ok()) << TaskName(task);
    EXPECT_EQ(parsed.value(), task);
  }
  // Accepted spellings: case-insensitive, '-' for '_', bare "topk".
  EXPECT_EQ(ParseTask("TOP-K").value(), MiningTask::kTopK);
  EXPECT_EQ(ParseTask("topk").value(), MiningTask::kTopK);
  EXPECT_EQ(ParseTask("Closed").value(), MiningTask::kClosed);
  EXPECT_EQ(ParseTask("bogus").status().message(),
            "unknown task 'bogus' (want frequent|closed|maximal|top_k|"
            "rules)");
}

TEST(MiningQueryTest, ValidateEnforcesPerTaskParameters) {
  EXPECT_FALSE(MiningQuery::Frequent(0).Validate().ok());
  EXPECT_TRUE(MiningQuery::Frequent(1).Validate().ok());

  MiningQuery topk = MiningQuery::TopK(/*k=*/1, 2);
  EXPECT_TRUE(topk.Validate().ok());
  topk.k = 0;
  EXPECT_FALSE(topk.Validate().ok());

  MiningQuery rules = MiningQuery::Rules(2, 0.5);
  EXPECT_TRUE(rules.Validate().ok());
  rules.min_confidence = 1.5;
  EXPECT_FALSE(rules.Validate().ok());
  rules.min_confidence = 0.5;
  rules.min_lift = -1.0;
  EXPECT_FALSE(rules.Validate().ok());
  rules.min_lift = 0.0;
  rules.max_consequent = 0;
  EXPECT_FALSE(rules.Validate().ok());

  // k/confidence only constrain the tasks that read them.
  MiningQuery frequent = MiningQuery::Frequent(2);
  frequent.k = 0;
  frequent.min_confidence = 7.0;
  EXPECT_TRUE(frequent.Validate().ok());
}

TEST(MinerDispatchTest, LegacySupportOverloadIsTheFrequentQuery) {
  const Database db = RandomDb(RandomDbSpec{.seed = 11});
  LcmMiner a, b;
  CollectingSink legacy, query;
  ASSERT_TRUE(a.Mine(db, 2, &legacy).ok());
  ASSERT_TRUE(b.Mine(db, MiningQuery::Frequent(2), &query).ok());
  EXPECT_EQ(legacy.results(), query.results());
}

TEST(MinerDispatchTest, ClosedAndMaximalMatchThePostprocessReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Database db =
        RandomDb(RandomDbSpec{.num_transactions = 40, .seed = seed});
    for (Support minsup : {2u, 4u}) {
      EclatMiner miner;  // no native closed path: exercises the generic one
      const auto closed =
          MineQuery(miner, db, MiningQuery::Closed(minsup));
      const auto maximal =
          MineQuery(miner, db, MiningQuery::Maximal(minsup));

      EclatMiner reference;
      ExpectSameResults(MineClosed(reference, db, minsup), closed, "closed");
      ExpectSameResults(MineMaximal(reference, db, minsup), maximal, "maximal");
    }
  }
}

TEST(MinerDispatchTest, LcmNativeClosedPathMatchesTheGenericOne) {
  for (uint64_t seed : {5u, 6u}) {
    const Database db =
        RandomDb(RandomDbSpec{.num_transactions = 50, .seed = seed});
    LcmMiner lcm;      // has NativeClosedMiner(): ppc-extension kernel
    EclatMiner eclat;  // generic: full mine + FilterClosed
    ExpectSameResults(MineQuery(eclat, db, MiningQuery::Closed(2)),
                      MineQuery(lcm, db, MiningQuery::Closed(2)),
                      "native vs generic closed");
    ExpectSameResults(MineQuery(eclat, db, MiningQuery::Maximal(2)),
                      MineQuery(lcm, db, MiningQuery::Maximal(2)),
                      "native vs generic maximal");
  }
}

TEST(MinerDispatchTest, TaskAndSinkMisuseAreInvalidArgument) {
  const Database db = MakeDb({{0, 1}, {0, 1}, {2}});
  LcmMiner miner;
  CollectingSink sink;
  // Rules produce AssociationRule values, not itemsets.
  EXPECT_EQ(miner.Mine(db, MiningQuery::Rules(1, 0.5), &sink)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  std::vector<AssociationRule> rules;
  // And vice versa: MineRules only accepts rules queries.
  EXPECT_EQ(miner.MineRules(db, MiningQuery::Closed(1), &rules)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(miner.Mine(db, MiningQuery::Frequent(1), nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      miner.MineRules(db, MiningQuery::Rules(1, 0.5), nullptr)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

// ---- rules ---------------------------------------------------------------

bool IsClosedIn(const Entry& e, const std::vector<Entry>& all) {
  for (const auto& other : all) {
    if (other.second == e.second && other.first.size() > e.first.size() &&
        std::includes(other.first.begin(), other.first.end(),
                      e.first.begin(), e.first.end())) {
      return false;
    }
  }
  return true;
}

TEST(RulesFromClosedTest, BasisAgreesWithFullListingGeneration) {
  const Database db =
      RandomDb(RandomDbSpec{.num_transactions = 40, .seed = 9});
  const Support minsup = 2;

  LcmMiner miner;
  CollectingSink sink;
  ASSERT_TRUE(miner.Mine(db, minsup, &sink).ok());
  sink.Canonicalize();
  const std::vector<Entry> all = sink.results();
  const std::vector<Entry> closed = FilterClosed(all);

  RuleOptions options;
  options.min_confidence = 0.3;
  auto full = GenerateRules(all, db.total_weight(), options);
  auto basis = GenerateRulesFromClosed(closed, db.total_weight(), options);
  ASSERT_TRUE(full.ok() && basis.ok())
      << full.status() << " " << basis.status();
  ASSERT_FALSE(basis->empty());

  // The basis is exactly the full rules whose combined itemset is
  // closed, with identical metrics (subset supports are recovered from
  // closed supersets, not re-counted).
  std::vector<AssociationRule> expected;
  for (const AssociationRule& rule : *full) {
    Itemset combined = rule.antecedent;
    combined.insert(combined.end(), rule.consequent.begin(),
                    rule.consequent.end());
    std::sort(combined.begin(), combined.end());
    if (IsClosedIn({combined, rule.itemset_support}, all)) {
      expected.push_back(rule);
    }
  }
  std::sort(expected.begin(), expected.end(), RuleOutranks);
  std::sort(basis->begin(), basis->end(), RuleOutranks);
  EXPECT_EQ(*basis, expected);
}

TEST(RulesFromClosedTest, MineRulesHonorsLiftAndConfidence) {
  // 6x{a,b}, 2x{a}, 2x{b,c}: a=>b has conf 0.75, lift 0.9375 (< 1).
  DatabaseBuilder b;
  for (int i = 0; i < 6; ++i) b.AddTransaction({0, 1});
  for (int i = 0; i < 2; ++i) b.AddTransaction({0});
  for (int i = 0; i < 2; ++i) b.AddTransaction({1, 2});
  const Database db = b.Build();

  LcmMiner miner;
  std::vector<AssociationRule> rules;
  auto stats =
      miner.MineRules(db, MiningQuery::Rules(1, /*confidence=*/0.5), &rules);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->num_frequent, rules.size());
  bool found = false;
  for (const AssociationRule& rule : rules) {
    if (rule.antecedent == Itemset{0} && rule.consequent == Itemset{1}) {
      found = true;
      EXPECT_EQ(rule.itemset_support, 6u);
      EXPECT_DOUBLE_EQ(rule.confidence, 6.0 / 8.0);
      EXPECT_DOUBLE_EQ(rule.lift, (6.0 / 8.0) * 10.0 / 8.0);
    }
  }
  EXPECT_TRUE(found);

  // Ordered by RuleOutranks: lift descending first.
  for (size_t i = 1; i < rules.size(); ++i) {
    EXPECT_FALSE(RuleOutranks(rules[i], rules[i - 1])) << "entry " << i;
  }

  // min_lift > 1 kills the negatively correlated a=>b.
  MiningQuery lifted = MiningQuery::Rules(1, 0.5, /*lift=*/1.0001);
  std::vector<AssociationRule> strong;
  ASSERT_TRUE(miner.MineRules(db, lifted, &strong).ok());
  for (const AssociationRule& rule : strong) {
    EXPECT_GE(rule.lift, 1.0001);
  }
  EXPECT_LT(strong.size(), rules.size());
}

}  // namespace
}  // namespace fpm
