// End-to-end MiningService tests: cache correctness (exact and
// support-dominance answers must be byte-identical to a direct
// sequential Mine()), admission control, deadlines and cancellation.

#include "fpm/service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <thread>
#include <string>
#include <vector>

#include "fpm/algo/itemset_sink.h"
#include "fpm/dataset/fimi_io.h"
#include "fpm/dataset/packed.h"
#include "fpm/obs/query_log.h"
#include "fpm/obs/trace.h"
#include "service/service_test_util.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

/// A direct sequential mine of `path` — the byte-identity baseline.
std::vector<CollectingSink::Entry> DirectMine(const std::string& path,
                                              Algorithm algorithm,
                                              Support min_support) {
  auto db = ReadFimiFile(path);
  EXPECT_TRUE(db.ok()) << db.status();
  MineOptions options;
  options.algorithm = algorithm;
  options.min_support = min_support;
  options.patterns = PatternSet::All();
  CollectingSink sink;
  EXPECT_TRUE(Mine(*db, options, &sink).ok());
  return sink.results();
}

MineRequest Request(const std::string& path, Algorithm algorithm,
                    Support min_support) {
  MineRequest request;
  request.dataset_path = path;
  request.algorithm = algorithm;
  request.patterns = PatternSet::All();
  request.query.min_support = min_support;
  return request;
}

TEST(MiningServiceTest, FreshQueryMatchesDirectMine) {
  const std::string path =
      test::WriteTempFimi("service_fresh.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{.num_threads = 2});
  auto response = service.Execute(Request(path, Algorithm::kLcm, 2));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->cache, CacheOutcome::kMiss);
  EXPECT_EQ(test::Itemsets(*response), DirectMine(path, Algorithm::kLcm, 2));
  EXPECT_EQ(response->num_frequent, test::Itemsets(*response).size());
  EXPECT_EQ(response->dataset_digest.size(), 16u);
}

TEST(MiningServiceTest, RepeatedQueryIsAnExactHitWithIdenticalBytes) {
  const std::string path =
      test::WriteTempFimi("service_repeat.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{.num_threads = 2});
  const MineRequest request = Request(path, Algorithm::kLcm, 2);
  auto first = service.Execute(request);
  auto second = service.Execute(request);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->cache, CacheOutcome::kMiss);
  EXPECT_EQ(second->cache, CacheOutcome::kExact);
  EXPECT_EQ(test::Itemsets(*second), test::Itemsets(*first));
  EXPECT_EQ(service.cache().stats().hits, 1u);
  EXPECT_EQ(service.registry().stats().loads, 1u);
}

// A response shares the cache's result instead of copying it: the miss
// answers with the result it inserted, and an exact hit, a cache_probe
// answer and a memoized derivation each answer with the very object the
// cache entry holds.
TEST(MiningServiceTest, ResponsesShareTheCachedListing) {
  const std::string path =
      test::WriteTempFimi("service_share.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{.num_threads = 2});
  const MineRequest request = Request(path, Algorithm::kLcm, 2);
  auto miss = service.Execute(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  ASSERT_NE(miss->listing, nullptr);
  EXPECT_EQ(miss->cache, CacheOutcome::kMiss);

  auto hit = service.Execute(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(hit->cache, CacheOutcome::kExact);
  EXPECT_EQ(hit->listing.get(), miss->listing.get());
  const std::optional<MineResponse> probed =
      service.AnswerFromCache(request, miss->dataset_digest);
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(probed->listing.get(), miss->listing.get());

  auto derived = service.Execute(Request(path, Algorithm::kLcm, 3));
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_EQ(derived->cache, CacheOutcome::kDominated);
  auto again = service.Execute(Request(path, Algorithm::kLcm, 3));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->cache, CacheOutcome::kExact);
  EXPECT_EQ(again->listing.get(), derived->listing.get());
}

// A response keeps its listing alive after the cache has evicted the
// entry it was answered from.
TEST(MiningServiceTest, ResponseOutlivesTheEvictedEntry) {
  const std::string path =
      test::WriteTempFimi("service_evict.dat", test::SmallFimiText());
  MiningService service(
      MiningService::Options{.num_threads = 1, .cache_budget_bytes = 1});
  auto first = service.Execute(Request(path, Algorithm::kLcm, 2));
  ASSERT_TRUE(first.ok()) << first.status();
  // Another configuration's miss: the one-byte budget keeps only it.
  auto second = service.Execute(Request(path, Algorithm::kFpGrowth, 2));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->cache, CacheOutcome::kMiss);
  EXPECT_EQ(service.cache().stats().evictions, 1u);
  EXPECT_EQ(service.cache().stats().resident_entries, 1u);

  EXPECT_EQ(test::Itemsets(*first), DirectMine(path, Algorithm::kLcm, 2));
  EXPECT_EQ(first->num_frequent, test::Itemsets(*first).size());
}

TEST(MiningServiceTest, PackedAndFimiPathsShareTheResultCache) {
  // The packed file carries the digest of the FIMI bytes it was
  // converted from, so the same query against either path is one cache
  // entry: storage backend is invisible to the ResultCache key.
  const std::string fimi =
      test::WriteTempFimi("service_packed.dat", test::SmallFimiText());
  const std::string packed = testing::TempDir() + "/service_packed.fpk";
  auto db = ReadFimiFile(fimi);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(
      WritePacked(db.value(), packed, ContentDigest(test::SmallFimiText()))
          .ok());

  MiningService service(MiningService::Options{.num_threads = 2});
  auto from_fimi = service.Execute(Request(fimi, Algorithm::kLcm, 2));
  ASSERT_TRUE(from_fimi.ok()) << from_fimi.status();
  EXPECT_EQ(from_fimi->cache, CacheOutcome::kMiss);

  auto from_packed = service.Execute(Request(packed, Algorithm::kLcm, 2));
  ASSERT_TRUE(from_packed.ok()) << from_packed.status();
  EXPECT_EQ(from_packed->cache, CacheOutcome::kExact);
  EXPECT_EQ(from_packed->dataset_digest, from_fimi->dataset_digest);
  EXPECT_EQ(test::Itemsets(*from_packed), test::Itemsets(*from_fimi));
  EXPECT_EQ(service.cache().stats().hits, 1u);
  // Two registry entries (keyed by path), one cache entry (keyed by
  // digest).
  EXPECT_EQ(service.registry().stats().loads, 2u);
}

class DominanceTest : public testing::TestWithParam<Algorithm> {};

TEST_P(DominanceTest, DominatedQueryIsByteIdenticalToAFreshMine) {
  const std::string name = AlgorithmName(GetParam());
  const std::string dense = test::WriteTempFimi(
      "service_dom_" + name + ".dat",
      test::DenseFimiText(/*rows=*/60, /*universe=*/12, /*k=*/6));
  // This input's fill crosses kEclatTidListFillInverse between its low
  // and its dominated supports (EclatStraddleTest): Eclat's cached run
  // mines tid lists, a fresh run at a dominated support bit vectors.
  const std::string straddle =
      testing::TempDir() + "/service_dom_straddle_" + name + ".dat";
  ASSERT_TRUE(WriteFimiFile(testutil::SparseDb({.num_transactions = 8192,
                                                .num_groups = 1024,
                                                .dense_items = 5}),
                            straddle)
                  .ok());
  struct Case {
    std::string path;
    Support low;
    std::vector<Support> dominated;
  };
  for (const Case& c : {Case{dense, 4, {8, 16}},
                        Case{straddle, 3, {100, 200}}}) {
    MiningService service(MiningService::Options{.num_threads = 2});
    // Low threshold first: the cached superset every higher-threshold
    // query filters from.
    auto low = service.Execute(Request(c.path, GetParam(), c.low));
    ASSERT_TRUE(low.ok()) << low.status();
    EXPECT_EQ(low->cache, CacheOutcome::kMiss);

    for (Support minsup : c.dominated) {
      auto dominated = service.Execute(Request(c.path, GetParam(), minsup));
      ASSERT_TRUE(dominated.ok()) << dominated.status();
      EXPECT_EQ(dominated->cache, CacheOutcome::kDominated)
          << c.path << " minsup=" << minsup;
      ASSERT_FALSE(test::Itemsets(*dominated).empty()) << c.path;
      // The contract: identical to mining fresh, including emission
      // order.
      EXPECT_EQ(test::Itemsets(*dominated),
                DirectMine(c.path, GetParam(), minsup))
          << c.path << " minsup=" << minsup;
      // Memoized: asking again is an exact hit, same bytes.
      auto again = service.Execute(Request(c.path, GetParam(), minsup));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->cache, CacheOutcome::kExact);
      EXPECT_EQ(test::Itemsets(*again), test::Itemsets(*dominated));
    }
    EXPECT_EQ(service.cache().stats().dominated_hits, c.dominated.size());
  }
}

INSTANTIATE_TEST_SUITE_P(OrderStableKernels, DominanceTest,
                         testing::Values(Algorithm::kLcm, Algorithm::kEclat),
                         [](const auto& info) {
                           return std::string(AlgorithmName(info.param));
                         });

TEST(MiningServiceTest, FpGrowthNeverAnswersByDominance) {
  const std::string path = test::WriteTempFimi(
      "service_fpg.dat",
      test::DenseFimiText(/*rows=*/60, /*universe=*/12, /*k=*/6));
  MiningService service(MiningService::Options{.num_threads = 2});
  auto low = service.Execute(Request(path, Algorithm::kFpGrowth, 4));
  ASSERT_TRUE(low.ok()) << low.status();
  auto high = service.Execute(Request(path, Algorithm::kFpGrowth, 8));
  ASSERT_TRUE(high.ok()) << high.status();
  // Emission order is threshold-dependent for FP-Growth, so the higher
  // threshold mines fresh rather than filtering the cached run.
  EXPECT_EQ(high->cache, CacheOutcome::kMiss);
  EXPECT_EQ(test::Itemsets(*high), DirectMine(path, Algorithm::kFpGrowth, 8));
  EXPECT_EQ(service.cache().stats().dominated_hits, 0u);
}

TEST(MiningServiceTest, CountOnlyOmitsItemsetsButCachesInFull) {
  const std::string path =
      test::WriteTempFimi("service_count.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{.num_threads = 2});
  MineRequest counting = Request(path, Algorithm::kLcm, 2);
  counting.count_only = true;
  auto counted = service.Execute(counting);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->listing, nullptr);
  EXPECT_GT(counted->num_frequent, 0u);

  // The cache stored the full result: the same query without
  // count_only replays it instead of mining again.
  auto full = service.Execute(Request(path, Algorithm::kLcm, 2));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->cache, CacheOutcome::kExact);
  EXPECT_EQ(test::Itemsets(*full), DirectMine(path, Algorithm::kLcm, 2));
  EXPECT_EQ(full->num_frequent, counted->num_frequent);
}

TEST(MiningServiceTest, QueriesAreValidatedBeforeQueueing) {
  MiningService service(MiningService::Options{.num_threads = 1});
  MineRequest no_support = Request("whatever.dat", Algorithm::kLcm, 1);
  no_support.query.min_support = 0;
  EXPECT_EQ(service.Submit(no_support).status().code(),
            StatusCode::kInvalidArgument);

  MineRequest no_path = Request("", Algorithm::kLcm, 2);
  EXPECT_EQ(service.Submit(no_path).status().code(),
            StatusCode::kInvalidArgument);

  // Past the bound, the nanosecond deadline used to wrap into the past.
  MineRequest forever = Request("whatever.dat", Algorithm::kLcm, 2);
  forever.timeout_seconds = 1e10;
  EXPECT_EQ(service.Submit(forever).status().message(),
            "timeout_seconds must be in [0, 31536000]");

  MineRequest missing =
      Request("/nonexistent/service_nope.dat", Algorithm::kLcm, 2);
  EXPECT_FALSE(service.Submit(missing).ok());
}

TEST(MiningServiceTest, AdmissionControlRejectsProvablyHugeQueries) {
  const std::string path = test::WriteTempFimi(
      "service_admission.dat",
      test::DenseFimiText(/*rows=*/100, /*universe=*/30, /*k=*/15));
  MiningService::Options options;
  options.num_threads = 1;
  options.max_estimated_itemsets = 1000.0;
  MiningService service(options);
  auto rejected = service.Submit(Request(path, Algorithm::kLcm, 2));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // A sane threshold on the same dataset is admitted and completes.
  auto admitted = service.Execute(Request(path, Algorithm::kLcm, 90));
  EXPECT_TRUE(admitted.ok()) << admitted.status();
}

TEST(MiningServiceTest, DeadlineCancelledJobReturnsPromptly) {
  const std::string path =
      test::WriteTempFimi("service_deadline.dat", test::DenseFimiText());
  MiningService service(MiningService::Options{.num_threads = 2});
  MineRequest request = Request(path, Algorithm::kLcm, 2);
  request.timeout_seconds = 0.05;

  const auto start = std::chrono::steady_clock::now();
  auto submitted = service.Submit(request);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  submitted.value()->Wait();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  auto result = submitted.value()->Take();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The acceptance bound: back within 250 ms of the deadline.
  EXPECT_LT(elapsed_ms, 50.0 + 250.0);
}

TEST(MiningServiceTest, ExplicitCancelStopsAnInFlightJob) {
  const std::string path =
      test::WriteTempFimi("service_cancel.dat", test::DenseFimiText());
  MiningService service(MiningService::Options{.num_threads = 2});
  auto submitted = service.Submit(Request(path, Algorithm::kEclat, 2));
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  std::shared_ptr<MineJob> job = submitted.value();
  // Let it start mining, then pull the plug.
  job->WaitFor(std::chrono::milliseconds(20));
  job->Cancel();
  job->Wait();
  auto result = job->Take();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// ---- the MiningQuery task family ----------------------------------------

/// Direct dispatch through a fresh sequential miner — the baseline the
/// service's task answers must match byte-for-byte.
std::vector<CollectingSink::Entry> DirectTask(const std::string& path,
                                              Algorithm algorithm,
                                              const MiningQuery& query) {
  auto db = ReadFimiFile(path);
  EXPECT_TRUE(db.ok()) << db.status();
  auto miner = CreateMiner(algorithm, PatternSet::All());
  EXPECT_TRUE(miner.ok()) << miner.status();
  CollectingSink sink;
  auto stats = miner.value()->Mine(*db, query, &sink);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return sink.results();
}

MineRequest TaskRequest(const std::string& path, Algorithm algorithm,
                        const MiningQuery& query) {
  MineRequest request = Request(path, algorithm, query.min_support);
  request.query = query;
  return request;
}

TEST(MiningServiceTaskTest, ClosedAndMaximalMatchDirectDispatch) {
  const std::string path = test::WriteTempFimi(
      "service_tasks.dat",
      test::DenseFimiText(/*rows=*/60, /*universe=*/12, /*k=*/6));
  MiningService service(MiningService::Options{.num_threads = 2});
  for (const MiningQuery& query :
       {MiningQuery::Closed(6), MiningQuery::Maximal(6)}) {
    auto response = service.Execute(TaskRequest(path, Algorithm::kLcm, query));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->task, query.task);
    EXPECT_EQ(test::Itemsets(*response),
              DirectTask(path, Algorithm::kLcm, query))
        << TaskName(query.task);
    EXPECT_EQ(response->num_frequent, test::Itemsets(*response).size());
  }
}

TEST(MiningServiceTaskTest, TopKMatchesExhaustiveReference) {
  const std::string path = test::WriteTempFimi(
      "service_topk.dat",
      test::DenseFimiText(/*rows=*/60, /*universe=*/12, /*k=*/6));
  MiningService service(MiningService::Options{.num_threads = 2});
  const MiningQuery query = MiningQuery::TopK(/*k=*/10, /*min_support=*/2);
  auto response = service.Execute(TaskRequest(path, Algorithm::kLcm, query));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(test::Itemsets(*response),
            DirectTask(path, Algorithm::kLcm, query));
  EXPECT_EQ(test::Itemsets(*response).size(), 10u);
  // The reference ranking: every frequent itemset, sorted by support
  // descending with the lexicographic tie-break, truncated to k.
  std::vector<CollectingSink::Entry> all =
      DirectMine(path, Algorithm::kLcm, 2);
  for (auto& entry : all) std::sort(entry.first.begin(), entry.first.end());
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  all.resize(10);
  EXPECT_EQ(test::Itemsets(*response), all);
}

TEST(MiningServiceTaskTest, RulesMatchDirectDispatch) {
  const std::string path = test::WriteTempFimi(
      "service_rules.dat",
      test::DenseFimiText(/*rows=*/60, /*universe=*/12, /*k=*/6));
  MiningService service(MiningService::Options{.num_threads = 2});
  const MiningQuery query = MiningQuery::Rules(/*min_support=*/6, 0.6);

  auto db = ReadFimiFile(path);
  ASSERT_TRUE(db.ok());
  auto miner = CreateMiner(Algorithm::kLcm, PatternSet::All());
  ASSERT_TRUE(miner.ok());
  std::vector<AssociationRule> direct;
  ASSERT_TRUE(miner.value()->MineRules(*db, query, &direct).ok());
  ASSERT_FALSE(direct.empty());

  auto response = service.Execute(TaskRequest(path, Algorithm::kLcm, query));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(test::Itemsets(*response).empty());
  EXPECT_EQ(test::Rules(*response), direct);
  EXPECT_EQ(response->num_frequent, direct.size());
}

TEST(MiningServiceTaskTest, TaskQueriesDeriveFromTheFrequentCache) {
  const std::string path = test::WriteTempFimi(
      "service_cross.dat",
      test::DenseFimiText(/*rows=*/60, /*universe=*/12, /*k=*/6));
  MiningService service(MiningService::Options{.num_threads = 2});
  // Warm the cache with the frequent run every task can be derived from.
  auto warm = service.Execute(Request(path, Algorithm::kLcm, 6));
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_EQ(warm->cache, CacheOutcome::kMiss);

  for (const MiningQuery& query :
       {MiningQuery::Closed(6), MiningQuery::Maximal(6),
        MiningQuery::TopK(/*k=*/5, /*min_support=*/6),
        MiningQuery::Rules(/*min_support=*/6, 0.6)}) {
    auto derived =
        service.Execute(TaskRequest(path, Algorithm::kLcm, query));
    ASSERT_TRUE(derived.ok()) << derived.status();
    EXPECT_EQ(derived->cache, CacheOutcome::kCrossTask)
        << TaskName(query.task);
    // Derived answers are byte-identical to mining the task fresh.
    if (query.task == MiningTask::kRules) {
      std::vector<AssociationRule> direct;
      auto db = ReadFimiFile(path);
      ASSERT_TRUE(db.ok());
      auto miner = CreateMiner(Algorithm::kLcm, PatternSet::All());
      ASSERT_TRUE(miner.ok());
      ASSERT_TRUE(miner.value()->MineRules(*db, query, &direct).ok());
      EXPECT_EQ(test::Rules(*derived), direct);
    } else {
      EXPECT_EQ(test::Itemsets(*derived),
                DirectTask(path, Algorithm::kLcm, query))
          << TaskName(query.task);
    }
    // And memoized: the re-ask is an exact hit.
    auto again =
        service.Execute(TaskRequest(path, Algorithm::kLcm, query));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->cache, CacheOutcome::kExact) << TaskName(query.task);
  }
  EXPECT_EQ(service.cache().stats().cross_task_hits, 4u);
  EXPECT_EQ(service.cache().stats().misses, 1u);
}

TEST(MiningServiceTaskTest, TaskSpecificValidationRunsAtSubmit) {
  MiningService service(MiningService::Options{.num_threads = 1});
  // top_k without k.
  MineRequest topk = TaskRequest("d.dat", Algorithm::kLcm,
                                 MiningQuery::TopK(/*k=*/1, 2));
  topk.query.k = 0;
  EXPECT_EQ(service.Submit(topk).status().code(),
            StatusCode::kInvalidArgument);
  // rules with an out-of-range confidence.
  MineRequest rules = TaskRequest("d.dat", Algorithm::kLcm,
                                  MiningQuery::Rules(2, 0.5));
  rules.query.min_confidence = 1.5;
  EXPECT_EQ(service.Submit(rules).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MiningServiceTest, TakeMovesTheResultOut) {
  const std::string path =
      test::WriteTempFimi("service_take.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{.num_threads = 1});
  auto submitted = service.Submit(Request(path, Algorithm::kLcm, 2));
  ASSERT_TRUE(submitted.ok());
  submitted.value()->Wait();
  EXPECT_TRUE(submitted.value()->done());
  auto first = submitted.value()->Take();
  EXPECT_TRUE(first.ok());
}

TEST(MiningServiceTest, ResponsesCarryUniqueQueryIdsAndEchoTraceId) {
  const std::string path =
      test::WriteTempFimi("service_qid.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{.num_threads = 1});
  MineRequest request = Request(path, Algorithm::kLcm, 2);
  request.trace_id = "client-tag";
  auto first = service.Execute(request);
  auto second = service.Execute(request);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(first->query_id, 0u);
  EXPECT_GT(second->query_id, first->query_id);
  EXPECT_EQ(first->trace_id, "client-tag");
  EXPECT_EQ(second->trace_id, "client-tag");
}

TEST(MiningServiceTest, QueryIdTagsTheServiceSpanAndNestedKernelSpans) {
  const std::string path =
      test::WriteTempFimi("service_qid_spans.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{.num_threads = 1});
  Tracer& tracer = Tracer::Default();
  tracer.CollectSpans();  // drain anything earlier tests left behind
  tracer.set_enabled(true);
  auto response = service.Execute(Request(path, Algorithm::kLcm, 2));
  tracer.set_enabled(false);
  ASSERT_TRUE(response.ok()) << response.status();

  const auto query_id_arg =
      [](const TraceSpan& span) -> const uint64_t* {
    for (const auto& [key, value] : span.args) {
      if (key == "query_id") return &value;
    }
    return nullptr;
  };
  bool service_span_tagged = false;
  size_t nested_tagged = 0;
  for (const TraceSpan& span : tracer.CollectSpans()) {
    const uint64_t* id = query_id_arg(span);
    if (id == nullptr || *id != response->query_id) continue;
    if (span.name == "service.mine") {
      service_span_tagged = true;
    } else {
      ++nested_tagged;  // kernel phase spans inside the job
    }
  }
  // The one query_id threads from the response through the service
  // span down into the kernel's own spans.
  EXPECT_TRUE(service_span_tagged);
  EXPECT_GE(nested_tagged, 1u);
}

TEST(MiningServiceTest, StatsReportsRegistryCacheSchedulerAndWindows) {
  const std::string path =
      test::WriteTempFimi("service_stats.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{.num_threads = 1});
  ASSERT_TRUE(service.Execute(Request(path, Algorithm::kLcm, 2)).ok());
  ASSERT_TRUE(service.Execute(Request(path, Algorithm::kLcm, 2)).ok());

  // A job signals its waiter from inside the running job, so the
  // scheduler's completed/in-flight bookkeeping trails Execute() by a
  // moment — poll for the settled state.
  ServiceStats stats = service.Stats();
  const auto settle_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((stats.scheduler.completed < 2 ||
          !stats.scheduler.in_flight.empty()) &&
         std::chrono::steady_clock::now() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = service.Stats();
  }
  EXPECT_GE(stats.uptime_seconds, 0.0);
  ASSERT_EQ(stats.registry.datasets.size(), 1u);
  EXPECT_EQ(stats.registry.datasets[0].path, path);
  EXPECT_EQ(stats.registry.datasets[0].versions, 1u);
  EXPECT_GT(stats.registry.datasets[0].bytes, 0u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.scheduler.submitted, 2u);
  EXPECT_EQ(stats.scheduler.completed, 2u);
  EXPECT_EQ(stats.scheduler.queue_depth, 0u);
  EXPECT_TRUE(stats.scheduler.in_flight.empty());
  ASSERT_EQ(stats.windows.size(), 3u);
  EXPECT_EQ(stats.windows[0].window_seconds, 1u);
  EXPECT_EQ(stats.windows[1].window_seconds, 10u);
  EXPECT_EQ(stats.windows[2].window_seconds, 60u);
  // Both queries just ran, so the 60s window has seen them.
  EXPECT_EQ(stats.windows[2].count, 2u);
  EXPECT_GT(stats.windows[2].qps, 0.0);
}

TEST(MiningServiceTest, RejectedRequestsStillGetLoggedQueryIds) {
  std::ostringstream log_out;
  QueryLog log;
  log.SetStream(&log_out);
  MiningService::Options options;
  options.num_threads = 1;
  options.query_log = &log;
  MiningService service(options);

  MineRequest request = Request("/nonexistent/x.dat", Algorithm::kLcm, 2);
  EXPECT_FALSE(service.Execute(request).ok());
  EXPECT_EQ(log.lines_written(), 1u);
  const std::string line = log_out.str();
  EXPECT_NE(line.find("\"status\":\"rejected\""), std::string::npos);
  EXPECT_NE(line.find("\"query_id\":"), std::string::npos);
  EXPECT_EQ(line.find("\"query_id\":0"), std::string::npos);
}

TEST(MiningServiceTest, QueryLogRecordsCompletionsWithCacheOutcome) {
  const std::string path =
      test::WriteTempFimi("service_qlog.dat", test::SmallFimiText());
  std::ostringstream log_out;
  QueryLog log;
  log.SetStream(&log_out);
  MiningService::Options options;
  options.num_threads = 1;
  options.query_log = &log;
  MiningService service(options);

  MineRequest request = Request(path, Algorithm::kLcm, 2);
  request.trace_id = "t-1";
  auto miss = service.Execute(request);
  auto hit = service.Execute(request);
  ASSERT_TRUE(miss.ok() && hit.ok());
  ASSERT_EQ(log.lines_written(), 2u);

  std::istringstream lines(log_out.str());
  std::string miss_line, hit_line;
  ASSERT_TRUE(std::getline(lines, miss_line));
  ASSERT_TRUE(std::getline(lines, hit_line));
  EXPECT_NE(
      miss_line.find("\"query_id\":" + std::to_string(miss->query_id)),
      std::string::npos);
  EXPECT_NE(miss_line.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(miss_line.find("\"mine_ms\":"), std::string::npos);
  EXPECT_NE(miss_line.find("\"trace_id\":\"t-1\""), std::string::npos);
  EXPECT_NE(miss_line.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(miss_line.find("\"peak_bytes\":"), std::string::npos);
  EXPECT_NE(
      hit_line.find("\"query_id\":" + std::to_string(hit->query_id)),
      std::string::npos);
  EXPECT_NE(hit_line.find("\"cache\":\"hit\""), std::string::npos);
}

}  // namespace
}  // namespace fpm
