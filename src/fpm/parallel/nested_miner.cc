#include "fpm/parallel/nested_miner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

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

/// Itemsets a streaming class task buffers before it hands them to the
/// caller's sink. A class is too coarse a unit: handing each class over
/// whole peaked at 38-45 MB VmHWM on the 814K case (quest T60I10D3K at
/// 30, 4 threads) against 13.6-13.8 MB for batches of 4,096, which ran as
/// fast as the ordered merge; one emission at a time serialized the
/// workers on the sink's lock (2-3x slower).
constexpr size_t kStreamBatch = 4096;

/// Result buffer of one class task, owned exclusively by that task while
/// it mines: one items array, with an end offset and a support per
/// itemset, so a class's output is two arrays however many itemsets it
/// holds (a class holding only its singleton, common on small answers,
/// costs two allocations). In the ordered merge each class has its own
/// shard, and ReplayInto() runs single-threaded after the join;
/// replaying the shards in class order reproduces the order the 1-thread
/// inline run emits. In the streaming merge a task's shard hands its
/// itemsets to the caller's sink, under the one lock, whenever it holds
/// kStreamBatch of them and when Flush() ends the class.
class ClassShard : public ItemsetSink {
 public:
  ClassShard() = default;
  /// A streaming shard, flushed into `target` under `mu`.
  ClassShard(ItemsetSink* target, std::mutex* mu) : target_(target), mu_(mu) {}

  void Emit(std::span<const Item> itemset, Support support) override {
    items_.insert(items_.end(), itemset.begin(), itemset.end());
    ends_.push_back({items_.size(), support});
    if (target_ != nullptr && ends_.size() == kStreamBatch) Flush();
  }

  void ReplayInto(ItemsetSink* target) const {
    uint64_t begin = 0;
    for (const End& e : ends_) {
      target->Emit(
          std::span<const Item>(items_.data() + begin, e.end - begin),
          e.support);
      begin = e.end;
    }
  }

  /// Streaming: hands the buffered itemsets to the target and empties
  /// the buffer, keeping its capacity for the next batch.
  void Flush() {
    if (ends_.empty()) return;
    {
      std::lock_guard<std::mutex> lk(*mu_);
      ReplayInto(target_);
    }
    items_.clear();
    ends_.clear();
  }

 private:
  struct End {
    uint64_t end;  // one past the itemset's last item in items_
    Support support;
  };
  ItemsetSink* target_ = nullptr;  // streaming only
  std::mutex* mu_ = nullptr;
  std::vector<Item> items_;
  std::vector<End> ends_;
};

/// State shared by every task of one Mine() call. Outlives the join (it
/// is a stack object in MineImpl spanning TaskGroup::Wait()).
struct NestedRun {
  const ClassDecomposition* decomp = nullptr;
  const MinerFactory* factory = nullptr;
  Support min_support = 0;
  TaskTelemetry telemetry;

  std::atomic<bool> failed{false};
  std::mutex merge_mu;  // guards the aggregates below + first_error
  Status first_error = Status::OK();
  uint64_t emitted = 0;
  double build_seconds = 0.0;
  size_t task_peak_bytes = 0;

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

  /// Body of an equivalence-class task: projects class `rank` from the
  /// shared decomposition on this worker and mines it into `target`.
  void RunClass(Item rank, ItemsetSink* target) {
    if (failed.load(std::memory_order_relaxed)) return;
    const auto start = std::chrono::steady_clock::now();
    PhaseSpan class_span("class");
    const Item owner_raw = decomp->rank_to_item[rank];
    class_span.AddArg("item", owner_raw);
    class_span.AddArg("entries", decomp->class_entries[rank]);

    // The class's own singleton: {owner} at its global support.
    target->Emit(std::span<const Item>(&owner_raw, 1),
                 decomp->class_supports()[rank]);
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
      Result<MineStats> run = (*kernel)->Mine(cond, min_support, &class_sink);
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

  if (pool == nullptr) {
    // Inline: class order, owner singleton first, kernel DFS below it —
    // the exact order the deterministic replay reproduces.
    for (size_t i = 0; i < num_frequent; ++i) {
      run.RunClass(static_cast<Item>(i), sink);
      if (run.failed.load()) return run.first_error;
    }
  } else {
    TaskGroup group(pool.get());

    // Deterministic mode: one shard per class, merged in class order
    // after the join. Streaming mode: each task's shard hands its
    // itemsets to the caller's sink in batches, under `sink_mu`.
    std::vector<ClassShard> class_shards(deterministic ? num_frequent : 0);
    std::mutex sink_mu;

    // Submitted largest projection first (by class_entries: the
    // projected entries on the row form, an estimate of them on the
    // dense form), which does not start the largest classes first:
    // this thread is outside the pool, so the pool deals the tasks
    // round-robin over the workers' deques, and each worker pops its
    // own deque from the back (thieves take from the front). Each
    // worker thus runs its smallest classes first and its largest last.
    // The order stays because rank order measured no faster on the
    // mine_parallel benchmark (4 CPUs, p50 with rank order against this
    // order: 83.3 against 78.8 ms over 5 alternating pairs, then 75.8
    // against 75.5 ms over 10 rounds).
    std::vector<Item> schedule(num_frequent);
    std::iota(schedule.begin(), schedule.end(), 0);
    std::stable_sort(schedule.begin(), schedule.end(),
                     [&decomp](Item a, Item b) {
                       return decomp.class_entries[a] >
                              decomp.class_entries[b];
                     });
    const uint64_t query_id = Tracer::ThreadQueryId();
    for (Item i : schedule) {
      ClassShard* shard = deterministic ? &class_shards[i] : nullptr;
      group.Run([&run, &sink_mu, sink, i, shard, query_id] {
        SpanContextScope span_context(query_id);
        if (shard != nullptr) {
          run.RunClass(i, shard);
          return;
        }
        ClassShard batch(sink, &sink_mu);
        run.RunClass(i, &batch);
        batch.Flush();
      });
    }
    group.Wait();
    if (run.failed.load()) return run.first_error;

    if (deterministic) {
      ScopedSpan merge_span("merge");
      for (const ClassShard& shard : class_shards) {
        shard.ReplayInto(sink);
      }
    }
  }
  run.telemetry.Finish();

  stats.num_frequent = run.emitted;
  // Build sums kernel construction over tasks (it may exceed wall
  // time). The footprint is the shared decomposition (the ranked
  // database and row index, or the two bitmaps) plus the largest single
  // task: a class's conditional database and its kernel structure.
  stats.set_phase_seconds(PhaseId::kBuild, run.build_seconds);
  stats.peak_structure_bytes = decomp.memory_bytes() + run.task_peak_bytes;
  stats.FinishPhase(PhaseId::kMine, mine_span);
  return stats;
}

}  // namespace fpm
