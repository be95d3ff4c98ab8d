// Market-basket analysis — the application that motivated frequent
// pattern mining (§1). Generates a retail-like transaction stream with
// the IBM Quest model, asks the pattern advisor how to tune the miner
// for this input, mines frequent itemsets, and derives association
// rules (support / confidence / lift) from them.
//
//   ./market_basket [min_support] [min_confidence]

#include <cstdio>
#include <cstdlib>

#include "fpm/algo/rules.h"
#include "fpm/common/timer.h"
#include "fpm/core/mine.h"
#include "fpm/core/pattern_advisor.h"
#include "fpm/dataset/quest_gen.h"
#include "fpm/dataset/stats.h"

using namespace fpm;

int main(int argc, char** argv) {
  const Support min_support =
      argc > 1 ? static_cast<Support>(std::atoi(argv[1])) : 150;
  const double min_confidence = argc > 2 ? std::atof(argv[2]) : 0.6;

  // A "grocery store" with 2000 products and 50K baskets built from
  // ~400 co-purchase patterns.
  QuestParams params;
  params.num_transactions = 50000;
  params.avg_transaction_len = 12;
  params.avg_pattern_len = 4;
  params.num_items = 2000;
  params.num_patterns = 400;
  params.seed = 7;
  auto dbr = GenerateQuest(params);
  if (!dbr.ok()) {
    std::fprintf(stderr, "%s\n", dbr.status().ToString().c_str());
    return 1;
  }
  const Database& db = dbr.value();
  const DatabaseStats stats = ComputeStats(db);
  std::printf("== Basket stream ==\n%s\n", stats.ToString().c_str());

  // Let the advisor pick the pattern set for this input (§6 future work).
  const PatternAdvice advice = AdvisePatterns(Algorithm::kLcm, stats);
  std::printf("== Pattern advisor (algorithm: lcm) ==\n");
  for (const auto& reason : advice.rationale) {
    std::printf("  %s\n", reason.c_str());
  }
  std::printf("  => enabling %s\n\n", advice.patterns.ToString().c_str());

  MineOptions options;
  options.algorithm = Algorithm::kLcm;
  options.min_support = min_support;
  options.patterns = advice.patterns;
  CollectingSink sink;
  WallTimer timer;
  const Result<MineStats> mine_stats = Mine(db, options, &sink);
  if (!mine_stats.ok()) {
    std::fprintf(stderr, "%s\n", mine_stats.status().ToString().c_str());
    return 1;
  }
  std::printf("== Mining ==\n");
  std::printf("  %llu frequent itemsets at support %u in %.3fs\n",
              static_cast<unsigned long long>(mine_stats->num_frequent),
              min_support, timer.ElapsedSeconds());

  sink.Canonicalize();
  RuleOptions rule_options;
  rule_options.min_confidence = min_confidence;
  auto rules = GenerateRules(sink.results(), db.total_weight(),
                             rule_options);
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== Top association rules (min confidence %.2f) ==\n",
              min_confidence);
  const size_t show = rules->size() < 15 ? rules->size() : 15;
  auto render = [](const Itemset& set) {
    std::string out;
    for (size_t j = 0; j < set.size(); ++j) {
      if (j > 0) out += ",";
      out += 'P';
      out += std::to_string(set[j]);
    }
    return out;
  };
  for (size_t i = 0; i < show; ++i) {
    const AssociationRule& r = (*rules)[i];
    std::printf("  {%s} => {%s}   supp %.4f  conf %.2f  lift %.1f\n",
                render(r.antecedent).c_str(), render(r.consequent).c_str(),
                r.support, r.confidence, r.lift);
  }
  std::printf("\n%zu rules total. Done.\n", rules->size());
  return 0;
}
