// Two-phase partitioned mining, after Savasere, Omiecinski & Navathe
// (VLDB'95 — the paper's reference [30]; the same plan is often called
// SON).
//
// Phase 1 splits the database into k partitions and mines each with a
// proportionally scaled local support; any globally frequent itemset is
// locally frequent in at least one partition, so the union of the local
// results is a complete candidate set. Phase 2 counts the candidates'
// exact supports (CountCandidates) and keeps those meeting the global
// threshold.
//
// The phases are pure functions over a Database, and there is one copy
// of them:
//
//   phase 1  mine slice [n*p/k, n*(p+1)/k) at ceil(S * w_p / W)
//                                                  (MineShardPartition)
//   merge    union + canonically sort the local results into the
//            candidate list                        (MergeShardCandidates)
//   phase 2  exact supports of the candidates over a slice; the slices
//            tile the database, so per-slice counts sum to global
//            supports                              (CountShardPartition)
//   filter   keep candidates whose summed count is >= S, canonical
//            order                                 (MergeShardCounts)
//
// fpmd's cluster scatter runs them across owners — shard_query modes
// "mine" and "count" on each owner, the merges on the coordinator — and
// bench_cluster_fanout times them in-process.
//
// Output-order contract: the result is the canonical (sorted) itemset
// order, not a kernel's emission order; the itemset/support set equals
// a direct mine's exactly.
//
// The classic motivation is out-of-core mining (each partition fits in
// memory); here it is the substrate of the cluster's scatter queries,
// and tests/core/shard_exec_test.cc checks it against direct mining for
// every kernel.

#ifndef FPM_CORE_PARTITION_H_
#define FPM_CORE_PARTITION_H_

#include <vector>

#include "fpm/algo/itemset_sink.h"
#include "fpm/common/status.h"
#include "fpm/core/patterns.h"
#include "fpm/dataset/database.h"

namespace fpm {

/// Which contiguous slice of the database a phase covers.
struct ShardSlice {
  uint32_t index = 0;  ///< partition number, < count
  uint32_t count = 1;  ///< total partitions (the fan-out width)
};

/// Materializes the slice's transactions as their own Database.
/// `part_weight` (optional) receives the slice's total weight.
Database BuildShardPartition(const Database& db, ShardSlice slice,
                             Support* part_weight = nullptr);

/// Phase 1 for one slice: mines it at the ceil-scaled local threshold
/// max(1, ceil(min_support * part_weight / total_weight)). Returns the
/// local frequent itemsets (candidate contributions). An empty slice
/// returns an empty list.
Result<std::vector<CollectingSink::Entry>> MineShardPartition(
    const Database& db, ShardSlice slice, Support min_support,
    Algorithm algorithm, PatternSet patterns);

/// Phase 2 for one slice: exact supports of `candidates` over the
/// slice, in candidate order (CountCandidates over the slice's tids, so
/// unsorted, empty and duplicate candidates behave as documented there).
Result<std::vector<Support>> CountShardPartition(
    const Database& db, ShardSlice slice,
    const std::vector<Itemset>& candidates);

/// Unions per-slice phase-1 results into the deduplicated, canonically
/// sorted candidate list.
std::vector<Itemset> MergeShardCandidates(
    std::vector<std::vector<CollectingSink::Entry>> locals);

/// Sums per-slice counts (one vector per slice, each candidate-order
/// aligned) and keeps candidates meeting the global threshold,
/// canonical order.
std::vector<CollectingSink::Entry> MergeShardCounts(
    const std::vector<Itemset>& candidates,
    const std::vector<std::vector<Support>>& per_shard,
    Support min_support);

}  // namespace fpm

#endif  // FPM_CORE_PARTITION_H_
