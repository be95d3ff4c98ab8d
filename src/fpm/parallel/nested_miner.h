// The parallel mining driver: first-item equivalence classes mined as
// fork-join tasks.
//
// The search space is decomposed into one equivalence class per frequent
// item (fpm/parallel/decompose.h), in the spirit of the task-parallel FPM
// literature (Kambadur et al.; Zymbler — see PAPERS.md). The caller ranks
// the input once and indexes each class's rows; a class task counts its
// items over that shared ranked database on its worker, copies out only
// what is frequent inside the class, and mines it with a fresh instance
// of the sequential kernel. Each class kernel also gets a SubtreeSpawner
// (fpm/algo/subtree.h): when the kernel's recursion reaches a subtree
// whose estimated work clears an adaptive cutoff, the subtree is detached
// (its conditional structures copied into a task-private arena leased
// from an ArenaPool) and forked onto the same TaskGroup as the class
// tasks, so a skewed class need not serialize the tail of the run.
//
// Determinism: every task owns a TreeShard — an op log of emissions and
// child markers recorded in DFS order. A spawn inserts a child marker at
// the current log position; the subtree's emissions land in the child
// shard. Replaying the shard tree (depth-first, markers expanded in
// place) after the join reproduces the sequential kernel's emission
// order byte-for-byte, no matter which workers mined what, or whether a
// given subtree was spawned or mined inline.

#ifndef FPM_PARALLEL_NESTED_MINER_H_
#define FPM_PARALLEL_NESTED_MINER_H_

#include <functional>
#include <memory>
#include <string>

#include "fpm/algo/miner.h"

namespace fpm {

/// Creates a fresh sequential kernel instance. Called once per mining
/// task, possibly concurrently from several workers — must be
/// thread-safe (stateless factories, e.g. a lambda over value-captured
/// options, trivially are).
using MinerFactory = std::function<Result<std::unique_ptr<Miner>>()>;

/// Configuration of the nested driver.
struct NestedParallelMinerOptions {
  ExecutionPolicy execution;
  /// Per-task kernel factory (required); see MinerFactory.
  MinerFactory factory;
  /// Display name of the kernel the factory produces.
  std::string kernel_name = "kernel";
  /// Base spawn cutoff in conditional-database entries. A subtree at
  /// depth d is spawned when its work estimate is at least
  /// base << min(d, 20); 0 picks the base automatically as
  /// max(256, projection_entries / 256). Tests set 1 to force spawning
  /// on tiny databases.
  uint64_t spawn_min_entries = 0;
};

/// Fork-join driver around a re-entrant sequential kernel. Exact: emits
/// the same itemsets (with the same supports) as the kernel run
/// directly; in deterministic mode, in the same order. Like the
/// kernels, a single Mine() call at a time per instance.
class NestedParallelMiner : public Miner {
 public:
  explicit NestedParallelMiner(NestedParallelMinerOptions options);

  std::string name() const override;

 protected:
  Result<MineStats> MineImpl(const Database& db, Support min_support,
                             ItemsetSink* sink) override;

 private:
  NestedParallelMinerOptions options_;
};

}  // namespace fpm

#endif  // FPM_PARALLEL_NESTED_MINER_H_
