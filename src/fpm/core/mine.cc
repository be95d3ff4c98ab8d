#include "fpm/core/mine.h"

#include <utility>

#include "fpm/algo/apriori.h"
#include "fpm/algo/bruteforce.h"
#include "fpm/algo/eclat/eclat_miner.h"
#include "fpm/algo/fpgrowth/fpgrowth_miner.h"
#include "fpm/algo/hmine.h"
#include "fpm/algo/lcm/lcm_miner.h"
#include "fpm/common/cancel.h"
#include "fpm/parallel/nested_miner.h"

namespace fpm {

PatternSet EffectivePatterns(Algorithm algorithm, PatternSet set) {
  return set.Intersect(PatternSet::ApplicableTo(algorithm));
}

Result<std::unique_ptr<Miner>> CreateMiner(Algorithm algorithm,
                                           PatternSet patterns,
                                           const CancelToken* cancel) {
  const PatternSet p = EffectivePatterns(algorithm, patterns);
  switch (algorithm) {
    case Algorithm::kLcm: {
      LcmOptions o;
      o.cancel = cancel;
      o.lexicographic_order = p.Contains(Pattern::kLexicographicOrdering);
      o.bucket_aggregation = p.Contains(Pattern::kAggregation);
      o.counter_compaction = p.Contains(Pattern::kCompaction);
      o.tiling = p.Contains(Pattern::kTiling);
      o.wavefront_prefetch = p.Contains(Pattern::kSoftwarePrefetch);
      return std::unique_ptr<Miner>(std::make_unique<LcmMiner>(o));
    }
    case Algorithm::kEclat: {
      EclatOptions o;
      o.cancel = cancel;
      // §4.2 couples them: the lexicographic ordering is what makes the
      // 0-escaping ranges short, so P1 enables both.
      o.lexicographic_order = p.Contains(Pattern::kLexicographicOrdering);
      o.zero_escaping = o.lexicographic_order;
      o.popcount = p.Contains(Pattern::kSimdization)
                       ? PopcountStrategy::kAuto
                       : PopcountStrategy::kLut16;
      return std::unique_ptr<Miner>(std::make_unique<EclatMiner>(o));
    }
    case Algorithm::kFpGrowth: {
      FpGrowthOptions o;
      o.cancel = cancel;
      o.lexicographic_order = p.Contains(Pattern::kLexicographicOrdering);
      o.node_compaction = p.Contains(Pattern::kDataStructureAdaptation);
      // P3 and P4 both act through the DFS re-layout of the compact
      // store (see fptree.h); either enables it.
      o.dfs_relayout = p.Contains(Pattern::kAggregation) ||
                       p.Contains(Pattern::kCompaction);
      o.software_prefetch = p.Contains(Pattern::kSoftwarePrefetch) ||
                            p.Contains(Pattern::kPrefetchPointers);
      return std::unique_ptr<Miner>(std::make_unique<FpGrowthMiner>(o));
    }
    case Algorithm::kApriori:
      return std::unique_ptr<Miner>(std::make_unique<AprioriMiner>());
    case Algorithm::kHMine:
      return std::unique_ptr<Miner>(std::make_unique<HMineMiner>());
    case Algorithm::kBruteForce:
      return std::unique_ptr<Miner>(std::make_unique<BruteForceMiner>());
  }
  return Status::InvalidArgument("unknown algorithm");
}

Result<std::unique_ptr<Miner>> CreateMiner(const MineOptions& options) {
  if (options.execution.num_threads == 0) {
    return Status::InvalidArgument("ExecutionPolicy.num_threads must be >= 1");
  }
  if (options.execution.num_threads == 1) {
    return CreateMiner(options.algorithm, options.patterns, options.cancel);
  }
  // Probe the configuration once so a bad algorithm/pattern combination
  // fails here instead of inside every worker task.
  FPM_ASSIGN_OR_RETURN(std::unique_ptr<Miner> probe,
                       CreateMiner(options.algorithm, options.patterns));
  NestedParallelMinerOptions no;
  no.execution = options.execution;
  no.kernel_name = probe->name();
  no.factory = [algorithm = options.algorithm, patterns = options.patterns,
                cancel = options.cancel] {
    return CreateMiner(algorithm, patterns, cancel);
  };
  return std::unique_ptr<Miner>(
      std::make_unique<NestedParallelMiner>(std::move(no)));
}

Result<MineStats> Mine(const Database& db, const MineOptions& options,
                       ItemsetSink* sink) {
  FPM_ASSIGN_OR_RETURN(std::unique_ptr<Miner> miner, CreateMiner(options));
  return miner->Mine(db, options.min_support, sink);
}

}  // namespace fpm
