// Long-lived mining query service: the embedding layer the wire server
// (fpm/service/server.h, run by examples/fpmd.cpp) and in-process
// callers sit on.
//
// A MiningService owns a ThreadPool, a DatasetRegistry (load-once
// refcounted datasets under an LRU byte budget), a ResultCache (exact
// and support-dominance reuse) and a JobScheduler (priorities,
// admission control, backpressure, deadlines). One request flows:
//
//   Submit(request)
//     -> registry.Open(path)           pin the dataset (load once)
//     -> cost model admission check    reject provably enormous answers
//     -> scheduler.Submit              backpressure at max_queue_depth
//   ...job runs on a pool worker...
//     -> cache.Lookup                  exact or dominance hit: no mining
//     -> Mine() with the job's CancelToken (deadline / explicit cancel)
//     -> cache.Insert
//
// Every request carries a CancelToken. The deadline is armed at
// submission (queue time counts against it); RequestCancel() — e.g. on
// client disconnect — stops an in-flight mine at the next kernel frame
// boundary. Results are deterministic and byte-identical to a direct
// sequential Mine() with a CollectingSink: the service mines each job
// with the sequential kernel (cross-query parallelism comes from the
// scheduler) and caches the exact emission order.
//
// Instrumentation: fpm.service.* counters/gauges via the default
// MetricsRegistry and a "service.mine" span per request via the default
// Tracer (both off unless enabled by the embedder).

#ifndef FPM_SERVICE_SERVICE_H_
#define FPM_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fpm/common/cancel.h"
#include "fpm/common/status.h"
#include "fpm/core/mine.h"
#include "fpm/obs/windowed.h"
#include "fpm/parallel/thread_pool.h"
#include "fpm/service/dataset_registry.h"
#include "fpm/service/job_scheduler.h"
#include "fpm/service/result_cache.h"
#include "fpm/service/watchdog.h"

namespace fpm {

class Counter;
class Histogram;
class QueryLog;

/// One mining request: the MiningQuery (task + thresholds) plus the
/// service-level envelope (dataset, algorithm, scheduling).
struct MineRequest {
  std::string dataset_path;  ///< registry key; loaded on first use
  /// Handle addressing (preferred): when set, the dataset is resolved
  /// by registry id instead of path. `dataset_version` 0 = latest at
  /// submission; nonzero pins an exact version for reproducible
  /// replays.
  std::string dataset_id;
  uint64_t dataset_version = 0;
  Algorithm algorithm = Algorithm::kLcm;
  /// Requested patterns; the effective subset (Table 4) is applied and
  /// used for cache keying.
  PatternSet patterns;
  /// What to mine: task, min_support and per-task parameters.
  MiningQuery query;
  /// Higher runs first; FIFO within a priority.
  int priority = 0;
  /// Seconds until the job's deadline, counted from submission
  /// (queueing included). 0 = no deadline; at most kMaxTimeoutSeconds.
  double timeout_seconds = 0.0;
  /// When true the response carries counts only, no itemsets/rules —
  /// cheaper to transport; the result is still cached in full.
  bool count_only = false;
  /// Cluster-mode opt-in (v2 "query" only): fan the mine out across the
  /// dataset's replica owners with the partitioned (SON) merge instead
  /// of routing to one owner. Results come back in canonical sorted
  /// order (a documented deviation from kernel emission order — see
  /// fpm/core/partition.h). Ignored by a non-clustered daemon.
  bool scatter = false;
  /// Request-scoped observability. `query_id` 0 (the norm) lets Submit
  /// assign the next monotonic id; the daemon pre-allocates via
  /// AllocateQueryId() so even rejected requests are logged under a
  /// unique id. `trace_id` is an opaque client-supplied passthrough for
  /// cross-system correlation; `op` labels a query that did not come
  /// from a client's own "query"/"batch" in the query log
  /// ("shard_query" for a peer's forward; empty otherwise).
  uint64_t query_id = 0;
  std::string trace_id;
  std::string op;
};

/// How a response was produced.
enum class CacheOutcome {
  kMiss,       ///< mined fresh
  kExact,      ///< replayed an exact cache entry
  kDominated,  ///< derived from a same-task lower-threshold entry
  kCrossTask,  ///< derived from another task's cache entry
  kReseeded,   ///< recounted a parent version's listing over the delta
};

const char* CacheOutcomeName(CacheOutcome outcome);

/// Inverse of CacheOutcomeName — what the cluster coordinator uses to
/// interpret a peer's response. InvalidArgument on unknown names.
Result<CacheOutcome> ParseCacheOutcome(const std::string& name);

struct MineResponse {
  MiningTask task = MiningTask::kFrequent;
  /// Number of result entries: itemsets for the itemset tasks, rules
  /// for kRules. (The name predates the task family; wire compat keeps
  /// it.)
  uint64_t num_frequent = 0;
  /// Itemset-task results, in the task's deterministic order (kFrequent:
  /// kernel emission order; kClosed/kMaximal: canonical; kTopK: support
  /// descending). Empty when count_only was requested or task == kRules.
  std::vector<CollectingSink::Entry> itemsets;
  /// kRules results in RuleOutranks order; empty when count_only.
  std::vector<AssociationRule> rules;
  CacheOutcome cache = CacheOutcome::kMiss;
  std::string dataset_digest;
  double queue_seconds = 0.0;   ///< submission -> job start
  double mine_seconds = 0.0;    ///< job start -> completion
  double derive_seconds = 0.0;  ///< cache lookup/derivation/reseed time
  uint64_t peak_bytes = 0;      ///< kernel peak structure bytes (miss only)
  uint64_t query_id = 0;        ///< the request's service-assigned id
  std::string trace_id;         ///< echoed client passthrough
  /// Cluster mode: the peer endpoint(s) that produced the result —
  /// empty when served locally. Encoded as "peer" in v2 responses.
  std::string served_by;
  /// Cluster scatter: number of shard owners that participated (0 for
  /// every non-scatter response). Encoded as "shards" when nonzero.
  uint32_t shard_count = 0;
};

/// Handle to a submitted job. Thread-safe; holding it keeps the result
/// (and the job's CancelToken) alive.
class MineJob {
 public:
  /// True once the job finished (any outcome).
  bool done() const;

  /// Blocks until done or `timeout` elapses; returns done().
  bool WaitFor(std::chrono::milliseconds timeout) const;

  /// Blocks until done.
  void Wait() const;

  /// Requests cooperative cancellation (client went away, operator
  /// abort). The job finishes with CANCELLED unless it already
  /// completed.
  void Cancel();

  /// Blocks until done, then returns the job's outcome; moves the
  /// response out on first call.
  Result<MineResponse> Take();

  /// The service-assigned query id (also in the response and the query
  /// log).
  uint64_t query_id() const { return query_id_; }

 private:
  friend class MiningService;
  MineJob() = default;

  uint64_t query_id_ = 0;
  CancelToken cancel_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool done_ = false;
  Result<MineResponse> result_{Status::Internal("job not finished")};
};

/// One sliding window's latency/QPS aggregate (stats op).
struct ServiceWindowStats {
  uint64_t window_seconds = 0;
  uint64_t count = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Point-in-time view of the whole service (the "stats" protocol op).
struct ServiceStats {
  double uptime_seconds = 0.0;
  DatasetRegistryStats registry;
  ResultCacheStats cache;
  JobSchedulerStats scheduler;
  std::vector<ServiceWindowStats> windows;  ///< 1s / 10s / 60s
  WatchdogStats watchdog;
};

class MiningService {
 public:
  struct Options {
    /// Pool worker count; 0 = hardware concurrency.
    uint32_t num_threads = 0;
    /// DatasetRegistry byte budget (0 = unlimited).
    size_t dataset_budget_bytes = 0;
    /// ResultCache byte budget (0 = unlimited).
    size_t cache_budget_bytes = 0;
    /// JobScheduler backpressure bound.
    size_t max_queue_depth = 64;
    /// Admission bound: reject queries whose Geerts-style itemset upper
    /// bound (fpm/service/cost_model.h) exceeds this. 0 = no admission
    /// check.
    double max_estimated_itemsets = 0.0;
    /// Structured query log sink (optional, not owned; must outlive the
    /// service). Completion, rejection and watchdog entries land here.
    QueryLog* query_log = nullptr;
    /// Stuck-job watchdog tuning (see fpm/service/watchdog.h). The
    /// monitor thread starts with the service; interval <= 0 disables
    /// it (stats()/Sweep() still work).
    double watchdog_deadline_factor = 3.0;
    double watchdog_absolute_seconds = 0.0;
    double watchdog_interval_seconds = 1.0;
  };

  explicit MiningService(Options options);

  /// Drains in-flight jobs.
  ~MiningService();

  MiningService(const MiningService&) = delete;
  MiningService& operator=(const MiningService&) = delete;

  /// Validates, pins the dataset, checks admission, and queues the job.
  /// Errors surfaced here (NotFound/IOError dataset, InvalidArgument,
  /// ResourceExhausted from admission or backpressure) mean the job was
  /// never queued.
  Result<std::shared_ptr<MineJob>> Submit(const MineRequest& request);

  /// Blocking convenience: Submit + Wait + Take.
  Result<MineResponse> Execute(const MineRequest& request);

  /// Answers `request` from the result cache alone, for the dataset
  /// whose content digest is `digest`: exact, dominated or cross-task,
  /// as a query job would (the cluster "cache_probe" op). No scheduler
  /// job, no dataset load, no query id; nullopt when the cache cannot
  /// answer.
  std::optional<MineResponse> AnswerFromCache(const MineRequest& request,
                                              const std::string& digest);

  /// Reserves the next monotonic query id. Submit() calls this when the
  /// request carries none; the daemon pre-allocates so error responses
  /// and log lines share the id.
  uint64_t AllocateQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Everything the "stats" protocol op reports: uptime, registry,
  /// cache, scheduler (with in-flight jobs), 1s/10s/60s latency
  /// windows, watchdog.
  ServiceStats Stats() const;

  /// Test hook: runs inside every job, after the watchdog considers it
  /// running and before any mining — a blocking hook simulates a stuck
  /// job (the "slow sink" failure the watchdog exists for).
  void set_mine_hook_for_test(std::function<void()> hook) {
    mine_hook_for_test_ = std::move(hook);
  }

  const DatasetRegistry& registry() const { return registry_; }
  /// Mutable registry access for the dataset ops (open / append /
  /// expire / window / dataset_info) the daemon forwards.
  DatasetRegistry& registry() { return registry_; }
  const ResultCache& cache() const { return cache_; }
  const JobScheduler& scheduler() const { return scheduler_; }
  const StuckJobWatchdog& watchdog() const { return watchdog_; }
  StuckJobWatchdog& watchdog() { return watchdog_; }

 private:
  /// The job body: cache lookup, mine, cache fill.
  Result<MineResponse> RunJob(const MineRequest& request,
                              const DatasetHandle& dataset,
                              const CancelToken& cancel);

  /// Appends the request's query-log line (completion or rejection).
  void LogQuery(const MineRequest& request, const DatasetHandle* dataset,
                const Result<MineResponse>& result, double queue_seconds,
                double mine_seconds);

  /// The incremental warm path for a non-base dataset version: finds a
  /// FREQUENT listing cached for the parent version at a threshold
  /// <= S - appended_weight (a complete candidate border for the child
  /// at S), recounts only delta-touched candidates, filters to S and
  /// canonicalizes. Returns null when no eligible seed exists. The
  /// result is inserted under the child's FREQUENT key by the caller.
  std::shared_ptr<CachedResult> TryReseed(const ResultCacheKey& frequent_key,
                                          const DatasetHandle& dataset);

  static uint32_t ResolveThreads(uint32_t requested);

  Options options_;
  ThreadPool pool_;
  DatasetRegistry registry_;
  ResultCache cache_;
  JobScheduler scheduler_;
  StuckJobWatchdog watchdog_;
  QueryLog* query_log_;  // may be null
  WindowedHistogram latency_window_;
  std::atomic<uint64_t> next_query_id_{1};
  const std::chrono::steady_clock::time_point start_time_;
  std::function<void()> mine_hook_for_test_;

  // fpm.service.* request metrics.
  Counter* requests_counter_;
  Counter* admission_rejects_counter_;
  Counter* cancelled_counter_;
  Counter* deadline_counter_;
  Histogram* mine_ms_histogram_;
  // fpm.service.cache.reseed* — the incremental warm path.
  Counter* reseeds_counter_;
  Counter* reseed_candidates_counter_;
  Counter* reseed_recounted_counter_;
  // fpm.service.tasks.<task>, indexed by MiningTask.
  Counter* task_counters_[kNumMiningTasks];
};

}  // namespace fpm

#endif  // FPM_SERVICE_SERVICE_H_
