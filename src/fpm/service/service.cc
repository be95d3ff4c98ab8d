#include "fpm/service/service.h"

#include <algorithm>
#include <utility>

#include "fpm/algo/candidate_trie.h"
#include "fpm/obs/metrics.h"
#include "fpm/obs/query_log.h"
#include "fpm/obs/trace.h"
#include "fpm/service/cost_model.h"

namespace fpm {

namespace {

ResultCacheKey CacheKeyFor(const MineRequest& request,
                           const std::string& digest) {
  return ResultCacheKey::ForQuery(
      digest, request.algorithm,
      EffectivePatterns(request.algorithm, request.patterns).bits(),
      request.query);
}

CacheOutcome OutcomeOf(const ResultCacheLookup& lookup) {
  return lookup.exact        ? CacheOutcome::kExact
         : lookup.cross_task ? CacheOutcome::kCrossTask
                             : CacheOutcome::kDominated;
}

/// What a cached result answers `request` with: its task, outcome and
/// count, plus its listing unless count_only was asked.
MineResponse CachedResponse(const MineRequest& request,
                            const CachedResult& result, CacheOutcome outcome) {
  MineResponse response;
  response.task = request.query.task;
  response.cache = outcome;
  response.num_frequent = result.num_results;
  if (!request.count_only) {
    response.itemsets = result.itemsets;
    response.rules = result.rules;
  }
  return response;
}

}  // namespace

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kExact:
      return "hit";
    case CacheOutcome::kDominated:
      return "dominated";
    case CacheOutcome::kCrossTask:
      return "cross_task";
    case CacheOutcome::kReseeded:
      return "reseeded";
  }
  return "unknown";
}

Result<CacheOutcome> ParseCacheOutcome(const std::string& name) {
  if (name == "miss") return CacheOutcome::kMiss;
  if (name == "hit") return CacheOutcome::kExact;
  if (name == "dominated") return CacheOutcome::kDominated;
  if (name == "cross_task") return CacheOutcome::kCrossTask;
  if (name == "reseeded") return CacheOutcome::kReseeded;
  return Status::InvalidArgument("unknown cache outcome '" + name + "'");
}

bool MineJob::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

bool MineJob::WaitFor(std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [this] { return done_; });
}

void MineJob::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
}

void MineJob::Cancel() { cancel_.RequestCancel(); }

Result<MineResponse> MineJob::Take() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return std::move(result_);
}

uint32_t MiningService::ResolveThreads(uint32_t requested) {
  return requested != 0 ? requested : ThreadPool::HardwareThreads();
}

MiningService::MiningService(Options options)
    : options_(options),
      pool_(ResolveThreads(options.num_threads)),
      registry_(options.dataset_budget_bytes),
      cache_(options.cache_budget_bytes),
      scheduler_(JobSchedulerOptions{&pool_, options.max_queue_depth}),
      watchdog_(WatchdogOptions{options.watchdog_deadline_factor,
                                options.watchdog_absolute_seconds,
                                options.watchdog_interval_seconds,
                                options.query_log}),
      query_log_(options.query_log),
      start_time_(std::chrono::steady_clock::now()) {
  watchdog_.Start();
  MetricsRegistry& m = MetricsRegistry::Default();
  requests_counter_ = m.GetCounter("fpm.service.requests");
  admission_rejects_counter_ =
      m.GetCounter("fpm.service.admission_rejects");
  cancelled_counter_ = m.GetCounter("fpm.service.jobs.cancelled");
  deadline_counter_ = m.GetCounter("fpm.service.jobs.deadline_exceeded");
  mine_ms_histogram_ = m.GetHistogram(
      "fpm.service.mine_ms", {1, 2, 5, 10, 25, 50, 100, 250, 500, 1000,
                              2500, 5000, 10000, 30000, 60000});
  reseeds_counter_ = m.GetCounter("fpm.service.cache.reseeds");
  reseed_candidates_counter_ =
      m.GetCounter("fpm.service.cache.reseed_candidates");
  reseed_recounted_counter_ =
      m.GetCounter("fpm.service.cache.reseed_recounted");
  for (int t = 0; t < kNumMiningTasks; ++t) {
    task_counters_[t] = m.GetCounter(
        std::string("fpm.service.tasks.") +
        TaskName(static_cast<MiningTask>(t)));
  }
}

MiningService::~MiningService() { scheduler_.Drain(); }

Result<std::shared_ptr<MineJob>> MiningService::Submit(
    const MineRequest& request) {
  requests_counter_->Increment();

  // Every request — including one rejected below — runs under a unique
  // id so its query-log line is attributable. The daemon pre-allocates
  // (request.query_id != 0) to tag its own error responses.
  MineRequest queued = request;
  if (queued.query_id == 0) queued.query_id = AllocateQueryId();

  // Rejection helper: log the submit-path failure and pass it through.
  const auto reject = [this, &queued](Status status) -> Status {
    LogQuery(queued, /*dataset=*/nullptr, status, /*queue_seconds=*/0.0,
             /*mine_seconds=*/0.0);
    return status;
  };

  Status valid = request.query.Validate();
  if (!valid.ok()) return reject(std::move(valid));
  if (request.dataset_path.empty() && request.dataset_id.empty()) {
    return reject(Status::InvalidArgument("dataset_path must be set"));
  }
  if (!TimeoutInRange(request.timeout_seconds)) {
    return reject(Status::InvalidArgument(
        "timeout_seconds must be in [0, " +
        std::to_string(kMaxTimeoutSeconds) + "]"));
  }
  task_counters_[static_cast<int>(request.query.task)]->Increment();

  // Pin the dataset version for the whole job lifetime. Handle
  // addressing resolves "latest" here, at submission; path addressing
  // opens the dataset (load-once; concurrent first requests for the
  // same path coalesce inside the registry).
  DatasetHandle dataset;
  {
    Result<DatasetHandle> resolved =
        !request.dataset_id.empty()
            ? registry_.Resolve(request.dataset_id, request.dataset_version)
            : registry_.Open(request.dataset_path);
    if (!resolved.ok()) return reject(resolved.status());
    dataset = std::move(resolved).value();
  }

  // Admission: bound the answer before spending any mining time. The
  // bound costs one database pass — amortized by the registry across
  // the dataset's queries, and small against mining an inadmissibly
  // large one. A top-k answer is at most k entries, so k is its own
  // bound; the threshold bound would wrongly reject a bounded query
  // over a dense dataset.
  if (request.query.task == MiningTask::kTopK) {
    if (options_.max_estimated_itemsets > 0.0 &&
        static_cast<double>(request.query.k) >
            options_.max_estimated_itemsets) {
      admission_rejects_counter_->Increment();
      return reject(Status::ResourceExhausted(
          "query rejected by admission control: k " +
          std::to_string(request.query.k) + " exceeds " +
          std::to_string(options_.max_estimated_itemsets)));
    }
  } else if (options_.max_estimated_itemsets > 0.0) {
    const CostEstimate est =
        EstimateMiningCost(*dataset.database, request.query.min_support);
    if (est.max_frequent_itemsets > options_.max_estimated_itemsets) {
      admission_rejects_counter_->Increment();
      return reject(Status::ResourceExhausted(
          "query rejected by admission control: itemset bound " +
          std::to_string(est.max_frequent_itemsets) + " exceeds " +
          std::to_string(options_.max_estimated_itemsets)));
    }
  }

  // The handle owns the token; the job (and any kernel frames it
  // detaches) only borrow it, and the shared_ptr captured by the
  // closure keeps the handle alive past abandonment by the caller.
  auto job = std::shared_ptr<MineJob>(new MineJob());
  job->query_id_ = queued.query_id;
  if (request.timeout_seconds > 0.0) {
    job->cancel_.SetTimeout(std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
        std::chrono::duration<double>(request.timeout_seconds)));
  }

  // The watchdog tracks the job from submission: queue time counts
  // against the deadline exactly as CancelToken arms it.
  watchdog_.Register(queued.query_id, TaskName(request.query.task),
                     request.timeout_seconds);

  const auto submit_time = std::chrono::steady_clock::now();
  Status enqueue_status = scheduler_.Submit(
      request.priority, queued.query_id,
      [this, request = std::move(queued), dataset, job, submit_time] {
        const auto start_time = std::chrono::steady_clock::now();
        Result<MineResponse> result = RunJob(request, dataset, job->cancel_);
        const double queue_seconds =
            std::chrono::duration<double>(start_time - submit_time).count();
        const double mine_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_time)
                .count();
        if (result.ok()) {
          result.value().query_id = request.query_id;
          result.value().trace_id = request.trace_id;
          result.value().queue_seconds = queue_seconds;
          result.value().mine_seconds = mine_seconds;
          mine_ms_histogram_->Observe(
              static_cast<uint64_t>(mine_seconds * 1000.0));
        } else if (result.status().code() == StatusCode::kCancelled) {
          cancelled_counter_->Increment();
        } else if (result.status().code() ==
                   StatusCode::kDeadlineExceeded) {
          deadline_counter_->Increment();
        }
        latency_window_.Record((queue_seconds + mine_seconds) * 1000.0);
        watchdog_.Unregister(request.query_id);
        LogQuery(request, &dataset, result, queue_seconds, mine_seconds);
        std::lock_guard<std::mutex> lock(job->mu_);
        job->result_ = std::move(result);
        job->done_ = true;
        job->cv_.notify_all();
      });
  if (!enqueue_status.ok()) {
    watchdog_.Unregister(job->query_id_);
    return reject(std::move(enqueue_status));
  }
  return job;
}

void MiningService::LogQuery(const MineRequest& request,
                             const DatasetHandle* dataset,
                             const Result<MineResponse>& result,
                             double queue_seconds, double mine_seconds) {
  if (query_log_ == nullptr || !query_log_->enabled()) return;
  QueryLogEntry entry;
  entry.query_id = request.query_id;
  entry.trace_id = request.trace_id;
  entry.op = request.op;
  entry.task = TaskName(request.query.task);
  entry.dataset = request.dataset_path;
  entry.min_support = request.query.min_support;
  entry.k = request.query.task == MiningTask::kTopK ? request.query.k : 0;
  entry.algorithm = AlgorithmName(request.algorithm);
  if (dataset != nullptr) {
    entry.dataset_id = dataset->id;
    entry.dataset_version = dataset->version;
    entry.digest = dataset->digest;
  } else {
    entry.dataset_id = request.dataset_id;
    entry.dataset_version = request.dataset_version;
  }
  entry.queue_ms = queue_seconds * 1000.0;
  entry.mine_ms = mine_seconds * 1000.0;
  if (result.ok()) {
    const MineResponse& response = result.value();
    entry.derive_ms = response.derive_seconds * 1000.0;
    entry.cache = CacheOutcomeName(response.cache);
    entry.num_results = response.num_frequent;
    entry.peak_bytes = response.peak_bytes;
    entry.status = "ok";
  } else {
    switch (result.status().code()) {
      case StatusCode::kCancelled:
        entry.status = "cancelled";
        break;
      case StatusCode::kDeadlineExceeded:
        entry.status = "deadline";
        break;
      default:
        // Submit-path failures (validation, resolve, admission,
        // backpressure) never started a job.
        entry.status = dataset == nullptr ? "rejected" : "error";
    }
    entry.reason = result.status().message();
  }
  query_log_->Write(entry);
}

ServiceStats MiningService::Stats() const {
  ServiceStats s;
  s.uptime_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_time_)
                         .count();
  s.registry = registry_.stats();
  s.cache = cache_.stats();
  s.scheduler = scheduler_.stats();
  for (uint64_t window : {uint64_t{1}, uint64_t{10}, uint64_t{60}}) {
    const WindowedHistogram::Stats w = latency_window_.Query(window);
    s.windows.push_back(ServiceWindowStats{window, w.count, w.qps, w.p50_ms,
                                           w.p99_ms, w.max_ms});
  }
  s.watchdog = watchdog_.stats();
  return s;
}

std::shared_ptr<CachedResult> MiningService::TryReseed(
    const ResultCacheKey& frequent_key, const DatasetHandle& dataset) {
  const VersionDelta& delta = *dataset.delta;
  const Support threshold = frequent_key.min_support;
  // Soundness bound: s_child(X) <= s_parent(X) + appended_weight, so
  // every child-frequent X at S has s_parent(X) >= S - appended_weight.
  // A parent FREQUENT listing at S_p <= S - appended_weight therefore
  // contains every child-frequent itemset — a complete candidate
  // border. S <= appended_weight admits itemsets made of brand-new
  // items the parent never saw; no seed can cover those.
  if (threshold <= delta.appended_weight) return nullptr;
  if (dataset.parent_digest.empty()) return nullptr;
  const Support max_source = threshold - delta.appended_weight;
  ReseedSource seed =
      cache_.FindSeed(frequent_key, dataset.parent_digest, max_source);
  if (seed.result == nullptr) return nullptr;

  // Candidates entirely outside the delta item universe keep their
  // parent support verbatim — only delta-touched ones are recounted.
  std::vector<bool> in_universe;
  for (const auto* side : {&delta.appended, &delta.expired}) {
    for (const Itemset& t : *side) {
      for (Item it : t) {
        if (it >= in_universe.size()) in_universe.resize(size_t{it} + 1);
        in_universe[it] = true;
      }
    }
  }
  const std::vector<CollectingSink::Entry>& parent = seed.result->itemsets;
  std::vector<Itemset> touched;
  std::vector<size_t> touched_at;
  for (size_t i = 0; i < parent.size(); ++i) {
    const Itemset& candidate = parent[i].first;
    if (std::all_of(candidate.begin(), candidate.end(), [&](Item it) {
          return it < in_universe.size() && in_universe[it];
        })) {
      touched.push_back(candidate);
      touched_at.push_back(i);
    }
  }

  // s_child = s_parent + its count over the appended transactions - its
  // count over the expired ones, each side counted as its own Database.
  const auto count_side = [&touched](const std::vector<Itemset>& txns,
                                     const std::vector<Support>& weights) {
    DatabaseBuilder builder;
    for (size_t t = 0; t < txns.size(); ++t) {
      builder.AddTransaction(txns[t], weights[t]);
    }
    const Database side = builder.Build();
    return CountCandidates(side, 0, side.num_transactions(), touched);
  };
  Result<std::vector<Support>> gained =
      count_side(delta.appended, delta.appended_weights);
  Result<std::vector<Support>> lost =
      count_side(delta.expired, delta.expired_weights);
  if (!gained.ok() || !lost.ok()) return nullptr;

  auto reseeded = std::make_shared<CachedResult>();
  reseeded->itemsets = parent;
  for (size_t j = 0; j < touched.size(); ++j) {
    reseeded->itemsets[touched_at[j]].second += (*gained)[j] - (*lost)[j];
  }
  std::erase_if(reseeded->itemsets,
                [threshold](const CollectingSink::Entry& entry) {
                  return entry.second < threshold;
                });
  reseed_candidates_counter_->Add(parent.size());
  reseed_recounted_counter_->Add(touched.size());

  // Canonical order: supports shifted across versions, so the parent's
  // kernel emission order is meaningless here. Reseeded FREQUENT
  // listings (and everything derived from them) are canonically sorted
  // — the one documented deviation from raw kernel order (DESIGN §16).
  std::sort(reseeded->itemsets.begin(), reseeded->itemsets.end());
  reseeded->num_results = reseeded->itemsets.size();
  reseeded->total_weight = dataset.database->total_weight();
  reseeded->bytes = ResultCache::EstimateResultBytes(*reseeded);
  return reseeded;
}

Result<MineResponse> MiningService::RunJob(const MineRequest& request,
                                           const DatasetHandle& dataset,
                                           const CancelToken& cancel) {
  // The span context tags every span this thread records while the job
  // runs — the service.mine span below and all nested kernel/task
  // spans — with the owning request's query_id.
  SpanContextScope span_context(request.query_id);
  ScopedSpan span("service.mine");
  span.AddArg("task", static_cast<uint64_t>(request.query.task));
  span.AddArg("min_support", request.query.min_support);

  // A job that sat in the queue past its deadline never starts mining.
  if (cancel.cancelled()) return cancel.ToStatus();

  if (mine_hook_for_test_) mine_hook_for_test_();

  const auto derive_start = std::chrono::steady_clock::now();
  const ResultCacheKey key = CacheKeyFor(request, dataset.digest);

  const ResultCacheLookup cached = cache_.Lookup(key);
  std::shared_ptr<const CachedResult> result = cached.result;
  CacheOutcome outcome =
      result != nullptr ? OutcomeOf(cached) : CacheOutcome::kMiss;

  // Incremental warm path: this version was produced by append/expire
  // and the parent version's FREQUENT listing is cached — recount it
  // over the delta instead of mining the whole window. The reseeded
  // listing lands in the cache under this version's FREQUENT key; a
  // non-FREQUENT query then derives its answer from it cross-task.
  if (result == nullptr && dataset.delta != nullptr) {
    ResultCacheKey frequent_key = key;
    frequent_key.task = MiningTask::kFrequent;
    frequent_key.k = 0;
    frequent_key.max_consequent = 0;
    frequent_key.min_confidence = 0.0;
    frequent_key.min_lift = 0.0;
    std::shared_ptr<CachedResult> reseeded =
        TryReseed(frequent_key, dataset);
    if (reseeded != nullptr) {
      cache_.Insert(frequent_key, reseeded);
      if (request.query.task == MiningTask::kFrequent) {
        result = std::move(reseeded);
      } else {
        result = cache_.Lookup(key).result;  // derive from the reseed
      }
      if (result != nullptr) {
        outcome = CacheOutcome::kReseeded;
        reseeds_counter_->Increment();
      }
    }
  }

  double derive_seconds = 0.0;
  uint64_t peak_bytes = 0;
  if (result != nullptr) {
    // Served without mining: the elapsed time is cache derivation.
    derive_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - derive_start)
                         .count();
  } else {
    // Mine with the sequential kernel: deterministic emission/output
    // order is the cache's correctness contract, and cross-query
    // parallelism already saturates the pool.
    FPM_ASSIGN_OR_RETURN(
        std::unique_ptr<Miner> miner,
        CreateMiner(request.algorithm, request.patterns, &cancel));

    // The seed threshold is planted here, not at Submit: it costs a
    // database pass, and a query the cache can answer never needs it.
    MiningQuery query = request.query;
    if (query.task == MiningTask::kTopK && query.topk_seed_support == 0) {
      query.topk_seed_support =
          TopKSeedThreshold(*dataset.database, query.k, query.min_support);
    }

    auto fresh = std::make_shared<CachedResult>();
    if (query.task == MiningTask::kRules) {
      FPM_ASSIGN_OR_RETURN(
          const MineStats stats,
          miner->MineRules(*dataset.database, query, &fresh->rules));
      fresh->num_results = stats.num_frequent;
      peak_bytes = stats.peak_structure_bytes;
    } else {
      CollectingSink sink;
      FPM_ASSIGN_OR_RETURN(
          const MineStats stats,
          miner->Mine(*dataset.database, query, &sink));
      fresh->itemsets = std::move(sink.mutable_results());
      fresh->num_results = stats.num_frequent;
      peak_bytes = stats.peak_structure_bytes;
    }
    fresh->total_weight = dataset.database->total_weight();
    fresh->bytes = ResultCache::EstimateResultBytes(*fresh);
    cache_.Insert(key, fresh);
    result = std::move(fresh);
  }

  MineResponse response = CachedResponse(request, *result, outcome);
  response.dataset_digest = dataset.digest;
  response.derive_seconds = derive_seconds;
  response.peak_bytes = peak_bytes;
  span.AddArg("num_results", response.num_frequent);
  span.AddArg("cache_hit",
              response.cache == CacheOutcome::kMiss ? 0 : 1);
  return response;
}

std::optional<MineResponse> MiningService::AnswerFromCache(
    const MineRequest& request, const std::string& digest) {
  const ResultCacheLookup lookup = cache_.Lookup(CacheKeyFor(request, digest));
  if (lookup.result == nullptr) return std::nullopt;
  MineResponse response =
      CachedResponse(request, *lookup.result, OutcomeOf(lookup));
  response.dataset_digest = digest;
  response.trace_id = request.trace_id;
  return response;
}

Result<MineResponse> MiningService::Execute(const MineRequest& request) {
  FPM_ASSIGN_OR_RETURN(std::shared_ptr<MineJob> job, Submit(request));
  return job->Take();
}

}  // namespace fpm
