// The library front door: pick an algorithm, a pattern set and an
// execution policy, mine.
//
//   fpm::MineOptions options;
//   options.algorithm = fpm::Algorithm::kLcm;
//   options.min_support = 3000;
//   options.patterns = fpm::PatternSet::ApplicableTo(options.algorithm);
//   options.execution.num_threads = 8;   // 1 = sequential (default)
//   fpm::CollectingSink sink;
//   fpm::Result<fpm::MineStats> stats = fpm::Mine(db, options, &sink);
//   FPM_CHECK_OK(stats.status());

#ifndef FPM_CORE_MINE_H_
#define FPM_CORE_MINE_H_

#include <memory>

#include "fpm/algo/miner.h"
#include "fpm/core/patterns.h"

namespace fpm {

class CancelToken;

/// What to mine and how.
struct MineOptions {
  Algorithm algorithm = Algorithm::kLcm;
  Support min_support = 1;
  /// Patterns to enable. Patterns inapplicable to the chosen algorithm
  /// (Table 4) are ignored; query EffectivePatterns() to see the subset
  /// that will act.
  PatternSet patterns;
  /// num_threads == 1 runs the sequential kernel; > 1 mines first-item
  /// equivalence classes in parallel (fpm/parallel/). With
  /// deterministic (the default), the parallel run's canonical output
  /// is identical to the sequential run's.
  ExecutionPolicy execution;
  /// Cooperative cancellation (fpm/common/cancel.h): honored by the
  /// LCM/Eclat/FP-Growth kernels and, through them, the parallel
  /// drivers; a cancelled Mine() returns CANCELLED or
  /// DEADLINE_EXCEEDED. Ignored by the reference miners
  /// (apriori/hmine/bruteforce). The token must outlive the call.
  const CancelToken* cancel = nullptr;
};

/// Patterns of `set` that actually affect `algorithm`.
PatternSet EffectivePatterns(Algorithm algorithm, PatternSet set);

/// Instantiates a configured sequential miner. Returns InvalidArgument
/// for configurations that cannot run here (e.g. SIMD on a machine
/// without AVX2 — the auto strategy falls back instead of failing).
/// A non-null `cancel` is wired into kernels that support cooperative
/// cancellation and must outlive the miner's runs.
Result<std::unique_ptr<Miner>> CreateMiner(Algorithm algorithm,
                                           PatternSet patterns,
                                           const CancelToken* cancel = nullptr);

/// Instantiates a miner honoring the full options, including the
/// execution policy: a sequential kernel for num_threads == 1, the
/// task-parallel driver above it for num_threads > 1. InvalidArgument
/// on num_threads == 0. (min_support is validated by Mine(), not here.)
Result<std::unique_ptr<Miner>> CreateMiner(const MineOptions& options);

/// One-shot convenience: create, mine, return the run's stats.
Result<MineStats> Mine(const Database& db, const MineOptions& options,
                       ItemsetSink* sink);

}  // namespace fpm

#endif  // FPM_CORE_MINE_H_
