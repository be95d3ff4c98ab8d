// Property sweeps for the layout library across all three dataset
// generators: P1's invariants must hold on any input family.

#include <gtest/gtest.h>

#include <numeric>

#include "fpm/dataset/quest_gen.h"
#include "fpm/dataset/standin_gen.h"
#include "fpm/layout/lexicographic.h"
#include "testing/locality_metrics.h"

namespace fpm {
namespace {

using testutil::ItemRunCounts;
using testutil::TotalDiscontinuities;

enum class Source { kQuest, kWebDocs, kAp };

struct Case {
  Source source;
  uint64_t seed;
};

Database Generate(const Case& c) {
  switch (c.source) {
    case Source::kQuest: {
      QuestParams p;
      p.num_transactions = 1500;
      p.avg_transaction_len = 9;
      p.avg_pattern_len = 3;
      p.num_items = 120;
      p.num_patterns = 50;
      p.seed = c.seed;
      return GenerateQuest(p).value();
    }
    case Source::kWebDocs: {
      WebDocsLikeParams p;
      p.num_transactions = 1200;
      p.vocabulary = 900;
      p.avg_length = 25;
      p.num_topics = 6;
      p.topic_vocabulary = 120;
      p.seed = c.seed;
      return GenerateWebDocsLike(p).value();
    }
    case Source::kAp: {
      ApLikeParams p;
      p.num_transactions = 2000;
      p.vocabulary = 2500;
      p.avg_length = 6;
      p.seed = c.seed;
      return GenerateApLike(p).value();
    }
  }
  return Database();
}

class LexPropertyTest : public ::testing::TestWithParam<Case> {};

TEST_P(LexPropertyTest, PermutationIsABijection) {
  Database db = Generate(GetParam());
  LexicographicResult lex = LexicographicOrder(db);
  std::vector<bool> seen(db.num_transactions(), false);
  ASSERT_EQ(lex.tid_permutation.size(), db.num_transactions());
  for (Tid t : lex.tid_permutation) {
    ASSERT_LT(t, db.num_transactions());
    EXPECT_FALSE(seen[t]);
    seen[t] = true;
  }
}

TEST_P(LexPropertyTest, PermutationMapsTransactionsFaithfully) {
  Database db = Generate(GetParam());
  LexicographicResult lex = LexicographicOrder(db);
  // Transaction at new position t must be the rank-mapped image of the
  // original at tid_permutation[t].
  for (Tid t = 0; t < db.num_transactions(); t += 37) {
    const auto original = db.transaction(lex.tid_permutation[t]);
    const auto mapped = lex.database.transaction(t);
    ASSERT_EQ(original.size(), mapped.size());
    std::vector<Item> expect;
    for (Item raw : original) expect.push_back(lex.item_order.RankOf(raw));
    std::sort(expect.begin(), expect.end());
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), mapped.begin()));
    EXPECT_EQ(db.weight(lex.tid_permutation[t]), lex.database.weight(t));
  }
}

TEST_P(LexPropertyTest, TotalIncidencesAndWeightPreserved) {
  Database db = Generate(GetParam());
  LexicographicResult lex = LexicographicOrder(db);
  EXPECT_EQ(lex.database.num_entries(), db.num_entries());
  EXPECT_EQ(lex.database.total_weight(), db.total_weight());
}

TEST_P(LexPropertyTest, RankZeroIsContiguousAfterLex) {
  Database db = Generate(GetParam());
  LexicographicResult lex = LexicographicOrder(db);
  const auto runs = ItemRunCounts(lex.database);
  if (!runs.empty() && runs[0] > 0) {
    EXPECT_EQ(runs[0], 1u) << "most frequent item must form one run";
  }
}

TEST_P(LexPropertyTest, DiscontinuitiesNeverIncrease) {
  Database db = Generate(GetParam());
  LexicographicResult lex = LexicographicOrder(db);
  // Compare in the rank-mapped space (same multiset of transactions,
  // only the order differs): measure the rank-mapped-but-unsorted
  // database against the sorted one.
  ItemOrder order = ItemOrder::ByDecreasingFrequency(db);
  Database ranked = RemapItems(db, order);
  EXPECT_LE(TotalDiscontinuities(lex.database),
            TotalDiscontinuities(ranked));
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  static const char* kNames[] = {"quest", "webdocs", "ap"};
  return std::string(kNames[static_cast<int>(info.param.source)]) +
         "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Generators, LexPropertyTest,
    ::testing::Values(Case{Source::kQuest, 1}, Case{Source::kQuest, 2},
                      Case{Source::kWebDocs, 1}, Case{Source::kWebDocs, 2},
                      Case{Source::kAp, 1}, Case{Source::kAp, 2}),
    CaseName);

class QuestShapeTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(QuestShapeTest, AverageLengthTracksT) {
  const auto [t_param, i_param] = GetParam();
  QuestParams p;
  p.num_transactions = 3000;
  p.avg_transaction_len = t_param;
  p.avg_pattern_len = i_param;
  p.num_items = 500;
  p.num_patterns = 100;
  auto db = GenerateQuest(p);
  ASSERT_TRUE(db.ok());
  // The carry-over mechanism biases slightly; a third either way is a
  // real defect, not noise.
  EXPECT_GT(db->average_length(), t_param * 0.67) << p.Name();
  EXPECT_LT(db->average_length(), t_param * 1.5) << p.Name();
}

std::string QuestShapeName(
    const ::testing::TestParamInfo<std::pair<double, double>>& info) {
  std::string name = "T";
  name += std::to_string(static_cast<int>(info.param.first));
  name += 'I';
  name += std::to_string(static_cast<int>(info.param.second));
  return name;
}

INSTANTIATE_TEST_SUITE_P(ParameterGrid, QuestShapeTest,
                         ::testing::Values(std::pair{5.0, 2.0},
                                           std::pair{10.0, 4.0},
                                           std::pair{20.0, 6.0},
                                           std::pair{40.0, 10.0}),
                         QuestShapeName);

}  // namespace
}  // namespace fpm
