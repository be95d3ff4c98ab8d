#include "fpm/parallel/nested_miner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "fpm/algo/subtree.h"
#include "fpm/common/arena.h"
#include "fpm/obs/trace.h"
#include "fpm/parallel/decompose.h"
#include "fpm/parallel/sink_adapters.h"
#include "fpm/parallel/task_metrics.h"
#include "fpm/parallel/thread_pool.h"

namespace fpm {
namespace {

uint64_t NowMicros(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Order-preserving result buffer for one task: an op log interleaving
/// emissions with child markers, recorded in the task's DFS order. One
/// task owns one shard exclusively while mining; AddChild() is called by
/// that task (from SubtreeSpawner::Offer, at the recursion point being
/// detached), and the child shard is then owned exclusively by the
/// spawned task. ReplayInto() runs single-threaded after the join and
/// expands markers in place, reproducing the order a fully sequential
/// run would have emitted.
class TreeShard : public ItemsetSink {
 public:
  void Emit(std::span<const Item> itemset, Support support) override {
    ops_.push_back(Op{false, entries_.size()});
    entries_.emplace_back(Itemset(itemset.begin(), itemset.end()), support);
  }

  TreeShard* AddChild() {
    ops_.push_back(Op{true, children_.size()});
    children_.push_back(std::make_unique<TreeShard>());
    return children_.back().get();
  }

  void ReplayInto(ItemsetSink* target) const {
    for (const Op& op : ops_) {
      if (op.child) {
        children_[op.index]->ReplayInto(target);
      } else {
        const auto& [itemset, support] = entries_[op.index];
        target->Emit(itemset, support);
      }
    }
  }

 private:
  struct Op {
    bool child;
    size_t index;  // into entries_ or children_
  };

  std::vector<Op> ops_;
  std::vector<std::pair<Itemset, Support>> entries_;
  std::vector<std::unique_ptr<TreeShard>> children_;
};

struct NestedRun;

/// Per-task spawner handed to the kernels. Carries the task's shard (its
/// position in the deterministic op-log tree) and class owner; all
/// cross-task state lives in NestedRun.
class TaskSpawner : public SubtreeSpawner {
 public:
  TaskSpawner(NestedRun* run, TreeShard* shard, Item owner_raw)
      : run_(run), shard_(shard), owner_raw_(owner_raw) {}

  bool Offer(uint32_t depth, uint64_t work, const DetachFn& detach) override;

 private:
  NestedRun* run_;
  TreeShard* shard_;  // null in non-deterministic (streaming) mode
  Item owner_raw_;
};

/// State shared by every task of one nested Mine() call. Outlives the
/// join (it is a stack object in MineImpl spanning TaskGroup::Wait()).
struct NestedRun {
  const ClassDecomposition* decomp = nullptr;
  const MinerFactory* factory = nullptr;
  Support min_support = 0;
  uint64_t cutoff_base = 0;
  TaskGroup* group = nullptr;
  ItemsetSink* stream_sink = nullptr;  // locked; null in deterministic mode
  ArenaPool arena_pool;
  TaskTelemetry telemetry;

  std::atomic<bool> failed{false};
  std::mutex merge_mu;  // guards the aggregates below + first_error
  Status first_error = Status::OK();
  uint64_t emitted = 0;
  double build_seconds = 0.0;
  size_t task_peak_bytes = 0;

  uint64_t CutoffFor(uint32_t depth) const {
    return cutoff_base << std::min<uint32_t>(depth, 20);
  }

  void Fail(const Status& status) {
    if (!failed.exchange(true)) {
      std::lock_guard<std::mutex> lk(merge_mu);
      first_error = status;
    }
  }

  void Aggregate(uint64_t task_emitted, double task_build_seconds,
                 size_t peak_bytes) {
    std::lock_guard<std::mutex> lk(merge_mu);
    emitted += task_emitted;
    build_seconds += task_build_seconds;
    task_peak_bytes = std::max(task_peak_bytes, peak_bytes);
  }

  /// Body of a detached subtree task.
  void RunSubtree(TreeShard* shard, Item owner_raw, uint32_t depth,
                  const SubtreeSpawner::SubtreeFn& fn) {
    if (failed.load(std::memory_order_relaxed)) return;
    const auto start = std::chrono::steady_clock::now();
    ScopedSpan span("task");
    span.AddArg("depth", depth);
    span.AddArg("item", owner_raw);
    ItemsetSink* target = shard != nullptr
                              ? static_cast<ItemsetSink*>(shard)
                              : stream_sink;
    ClassSink class_sink(decomp->rank_to_item, owner_raw, target);
    TaskSpawner spawner(this, shard, owner_raw);
    MineStats stats;
    fn(&class_sink, &spawner, &stats);
    span.AddArg("itemsets", class_sink.emitted());
    Aggregate(class_sink.emitted(), 0.0, stats.peak_structure_bytes);
    telemetry.RecordTask(NowMicros(start));
  }

  /// Body of a top-level equivalence-class task: projects class `rank`
  /// from the shared decomposition on this worker and mines it. `spawn`
  /// selects whether subtrees may fork (false on the 1-thread inline
  /// path).
  void RunClass(Item rank, TreeShard* shard, bool spawn) {
    if (failed.load(std::memory_order_relaxed)) return;
    const auto start = std::chrono::steady_clock::now();
    PhaseSpan class_span("class");
    const Item owner_raw = decomp->rank_to_item[rank];
    class_span.AddArg("item", owner_raw);
    class_span.AddArg("entries", decomp->class_entries[rank]);
    ItemsetSink* target = shard != nullptr
                              ? static_cast<ItemsetSink*>(shard)
                              : stream_sink;

    // The class's own singleton: {owner} at its global support.
    target->Emit(std::span<const Item>(&owner_raw, 1),
                 decomp->class_supports[rank]);
    uint64_t task_emitted = 1;

    double task_build_seconds = 0.0;
    size_t peak_bytes = 0;
    // Without an item frequent inside the class, the kernel would emit
    // nothing: skip it.
    const Database cond = ProjectClass(*decomp, rank, min_support);
    if (cond.num_entries() > 0) {
      Result<std::unique_ptr<Miner>> kernel = (*factory)();
      if (!kernel.ok()) {
        Fail(kernel.status());
        return;
      }
      ClassSink class_sink(decomp->rank_to_item, owner_raw, target);
      TaskSpawner spawner(this, shard, owner_raw);
      Result<MineStats> run = (*kernel)->MineNested(
          cond, min_support, &class_sink, spawn ? &spawner : nullptr);
      if (!run.ok()) {
        Fail(run.status());
        return;
      }
      task_emitted += class_sink.emitted();
      task_build_seconds = run->phase_seconds(PhaseId::kBuild);
      peak_bytes = cond.resident_bytes() + run->peak_structure_bytes;
    }
    class_span.AddArg("itemsets", task_emitted);
    Aggregate(task_emitted, task_build_seconds, peak_bytes);
    telemetry.RecordTask(NowMicros(start));
  }
};

bool TaskSpawner::Offer(uint32_t depth, uint64_t work,
                        const DetachFn& detach) {
  NestedRun* run = run_;
  if (work < run->CutoffFor(depth) ||
      run->failed.load(std::memory_order_relaxed)) {
    run->telemetry.RecordCutoff();
    return false;
  }
  // Child marker at the current op-log position: the replay expands the
  // subtree's results exactly where a sequential recursion would have
  // emitted them.
  TreeShard* child = shard_ != nullptr ? shard_->AddChild() : nullptr;
  auto lease =
      std::make_shared<ArenaPool::Lease>(run->arena_pool.Acquire());
  SubtreeSpawner::SubtreeFn fn = detach(lease->get());
  run->telemetry.RecordSpawn(depth);
  const Item owner = owner_raw_;
  // Detached tasks run on arbitrary pool threads: carry the offering
  // thread's query-id span context so task spans stay attributable to
  // the owning request.
  const uint64_t query_id = Tracer::ThreadQueryId();
  run->group->Run([run, child, owner, depth, query_id, fn = std::move(fn),
                   lease = std::move(lease)]() mutable {
    SpanContextScope span_context(query_id);
    run->RunSubtree(child, owner, depth, fn);
    // The frame's storage lives in the leased arena: destroy the frame
    // before the lease returns (and Reset()s) the arena.
    fn = nullptr;
    lease.reset();
  });
  return true;
}

}  // namespace

NestedParallelMiner::NestedParallelMiner(NestedParallelMinerOptions options)
    : options_(std::move(options)) {}

std::string NestedParallelMiner::name() const {
  return "nested(" + std::to_string(options_.execution.num_threads) + "x" +
         options_.kernel_name +
         (options_.execution.deterministic ? "" : ",nondet") + ")";
}

Result<MineStats> NestedParallelMiner::MineImpl(const Database& db,
                                                Support min_support,
                                                ItemsetSink* sink) {
  if (options_.execution.num_threads == 0) {
    return Status::InvalidArgument("ExecutionPolicy.num_threads must be >= 1");
  }
  if (!options_.factory) {
    return Status::InvalidArgument(
        "NestedParallelMiner requires a miner factory");
  }
  const uint32_t num_threads = options_.execution.num_threads;
  const bool deterministic = options_.execution.deterministic;
  MineStats stats;
  NestedRun run;
  // One pool serves the decomposition passes and the class tasks. It is
  // declared after `run`, so its workers are joined before `run` goes.
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);

  PhaseSpan prep_span(PhaseName(PhaseId::kPrepare));
  const ClassDecomposition decomp =
      DecomposeClasses(db, min_support, pool.get());
  const size_t num_frequent = decomp.num_classes();
  stats.FinishPhase(PhaseId::kPrepare, prep_span);

  PhaseSpan mine_span(PhaseName(PhaseId::kMine));
  run.decomp = &decomp;
  run.factory = &options_.factory;
  run.min_support = min_support;
  run.cutoff_base =
      options_.spawn_min_entries != 0
          ? options_.spawn_min_entries
          : std::max<uint64_t>(256, decomp.projection_entries / 256);

  if (pool == nullptr) {
    // Inline: class order, owner singleton first, kernel DFS below it —
    // the exact order the deterministic replay reproduces.
    run.stream_sink = sink;
    for (size_t i = 0; i < num_frequent; ++i) {
      run.RunClass(static_cast<Item>(i), nullptr, /*spawn=*/false);
      if (run.failed.load()) return run.first_error;
    }
  } else {
    TaskGroup group(pool.get());
    run.group = &group;

    // Deterministic mode: one shard tree per class, merged in class
    // order after the join. Streaming mode: emissions are serialized
    // straight into the caller's sink.
    std::vector<TreeShard> class_shards(deterministic ? num_frequent : 0);
    std::mutex sink_mu;
    LockedSink locked(sink, &sink_mu);
    if (!deterministic) run.stream_sink = &locked;

    // Largest projection first: the biggest class starts immediately,
    // and its subtree spawns backfill the tail.
    std::vector<Item> schedule(num_frequent);
    std::iota(schedule.begin(), schedule.end(), 0);
    std::stable_sort(schedule.begin(), schedule.end(),
                     [&decomp](Item a, Item b) {
                       return decomp.class_entries[a] >
                              decomp.class_entries[b];
                     });
    const uint64_t query_id = Tracer::ThreadQueryId();
    for (Item i : schedule) {
      TreeShard* shard = deterministic ? &class_shards[i] : nullptr;
      group.Run([&run, i, shard, query_id] {
        SpanContextScope span_context(query_id);
        run.RunClass(i, shard, /*spawn=*/true);
      });
    }
    group.Wait();
    if (run.failed.load()) return run.first_error;

    if (deterministic) {
      ScopedSpan merge_span("merge");
      for (const TreeShard& shard : class_shards) {
        shard.ReplayInto(sink);
      }
    }
  }
  run.telemetry.Finish();

  stats.num_frequent = run.emitted;
  // Build sums kernel construction over tasks (it may exceed wall
  // time). The footprint is the shared ranked database and row index
  // plus the largest single task: a class's conditional database and its
  // kernel structure.
  stats.set_phase_seconds(PhaseId::kBuild, run.build_seconds);
  stats.peak_structure_bytes = decomp.memory_bytes() + run.task_peak_bytes;
  stats.FinishPhase(PhaseId::kMine, mine_span);
  return stats;
}

}  // namespace fpm
