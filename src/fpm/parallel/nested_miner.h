// The parallel mining driver: first-item equivalence classes mined as
// tasks on a work-stealing pool.
//
// The search space is decomposed into one equivalence class per frequent
// item (fpm/parallel/decompose.h), in the spirit of the task-parallel FPM
// literature (Kambadur et al.; Zymbler — see PAPERS.md). The caller ranks
// the input once and indexes each class's rows; a class task counts its
// items over that shared ranked database on its worker, copies out only
// what is frequent inside the class, and mines it with a fresh instance
// of the sequential kernel. A class is the only unit of parallel work:
// each kernel runs its whole recursion inline (DESIGN.md §10 gives the
// measurements behind this).
//
// Determinism: every class task emits into its own buffer. Replaying the
// buffers in class order after the join reproduces the 1-thread inline
// order byte-for-byte, no matter which workers mined which classes. With
// ExecutionPolicy::deterministic = false a task's buffer goes to the
// caller's sink, under one lock, every 4,096 itemsets and when its class
// ends, so only a few batches are held at any time.

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

/// Configuration of the parallel driver.
struct NestedParallelMinerOptions {
  ExecutionPolicy execution;
  /// Per-task kernel factory (required); see MinerFactory.
  MinerFactory factory;
  /// Display name of the kernel the factory produces.
  std::string kernel_name = "kernel";
};

/// Class-parallel driver around a sequential kernel. Exact: emits the
/// same itemsets (with the same supports) as the kernel run directly;
/// in deterministic mode, in the same order at every thread count. Like
/// the kernels, a single Mine() call at a time per instance.
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
