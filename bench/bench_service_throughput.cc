// Service-layer throughput: what the result cache buys a long-lived
// mining service. Four measurements against one in-process
// MiningService on the DS1 workload:
//
//   cold        the first query — pays the full mine
//   warm        repeated identical queries — exact cache hits
//   warm_listing  the same hits carrying their itemsets, each encoded
//               as the wire sends it (EncodeQueryResponse); every other
//               row asks count_only
//   dominated   ascending-threshold queries — dominance-filtered hits
//   mixed       closed/maximal/top-k/rules queries derived cross-task
//               from the cached frequent run, then re-asked warm
//   concurrent  C client threads hammering the warm path — QPS and
//               tail latency under contention
//
// Each row of BENCH_service_throughput.json carries clients, qps,
// p50_ms and p99_ms (the service-row shape validate_bench_json.py
// enforces) plus a "task" tag (schema v2 mixed-task rows), and the
// cache-outcome counts that prove which path the section actually
// exercised. The bench exits nonzero if the cache failed to serve the
// warm, dominated or mixed sections — a throughput number that
// silently re-mined would be meaningless.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "fpm/dataset/fimi_io.h"
#include "fpm/service/protocol.h"
#include "fpm/service/service.h"

namespace {

using Clock = std::chrono::steady_clock;

double ToMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct LatencyStats {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Percentiles over the individual latencies, QPS over the wall time.
LatencyStats Summarize(std::vector<double> latencies_ms, double wall_s) {
  LatencyStats out;
  if (latencies_ms.empty()) return out;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const size_t n = latencies_ms.size();
  out.p50_ms = latencies_ms[n / 2];
  out.p99_ms = latencies_ms[std::min(n - 1, (n * 99) / 100)];
  out.qps = static_cast<double>(n) / wall_s;
  return out;
}

}  // namespace

int main() {
  using namespace fpm;
  bench::PrintHeader("bench_service_throughput",
                     "mining service cold vs warm QPS and tail latency");

  bench::BenchReport report("service_throughput",
                            "mining service cold vs warm throughput");

  const double scale = BenchScale();
  const bench::BenchDataset ds = bench::MakeDs1(scale);
  const std::string path =
      (std::filesystem::temp_directory_path() / "fpm_bench_service.dat")
          .string();
  FPM_CHECK_OK(WriteFimiFile(ds.db, path));

  MiningService service(MiningService::Options{});
  MineRequest request;
  request.dataset_path = path;
  request.algorithm = Algorithm::kLcm;
  request.patterns = PatternSet::All();
  request.query = MiningQuery::Frequent(ds.min_support);
  request.count_only = true;  // measure the service, not result copying

  // ---- cold: the one query that actually mines. ----------------------
  const auto cold_start = Clock::now();
  auto cold = service.Execute(request);
  const double cold_ms = ToMs(Clock::now() - cold_start);
  FPM_CHECK_OK(cold.status());
  std::printf("cold   1 client   %8.2f ms   (%llu itemsets, cache %s)\n",
              cold_ms, static_cast<unsigned long long>(cold->num_frequent),
              CacheOutcomeName(cold->cache));
  report.AddRow()
      .Str("mode", "cold")
      .Str("task", "frequent")
      .Int("clients", 1)
      .Int("requests", 1)
      .Num("qps", 1000.0 / cold_ms)
      .Num("p50_ms", cold_ms)
      .Num("p99_ms", cold_ms)
      .Int("num_frequent", cold->num_frequent);

  // ---- warm: identical queries served from the exact-hit path. -------
  constexpr int kWarmRequests = 400;
  {
    std::vector<double> latencies;
    latencies.reserve(kWarmRequests);
    const auto start = Clock::now();
    for (int i = 0; i < kWarmRequests; ++i) {
      const auto t0 = Clock::now();
      auto r = service.Execute(request);
      latencies.push_back(ToMs(Clock::now() - t0));
      FPM_CHECK_OK(r.status());
      FPM_CHECK(r->cache == CacheOutcome::kExact) << "warm query missed";
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    const LatencyStats s = Summarize(std::move(latencies), wall_s);
    std::printf("warm   1 client   %8.0f qps   p50 %.3f ms   p99 %.3f ms\n",
                s.qps, s.p50_ms, s.p99_ms);
    report.AddRow()
        .Str("mode", "warm")
        .Str("task", "frequent")
        .Int("clients", 1)
        .Int("requests", kWarmRequests)
        .Num("qps", s.qps)
        .Num("p50_ms", s.p50_ms)
        .Num("p99_ms", s.p99_ms)
        .Num("speedup_vs_cold", cold_ms / (s.p50_ms > 0.0 ? s.p50_ms : 1e-6));
  }

  // ---- warm_listing: the exact hit as the wire sends it. -------------
  // Fewer requests: each one encodes the whole listing.
  constexpr int kWarmListingRequests = 100;
  {
    MineRequest listing = request;
    listing.count_only = false;
    std::vector<double> latencies;
    latencies.reserve(kWarmListingRequests);
    size_t line_bytes = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kWarmListingRequests; ++i) {
      const auto t0 = Clock::now();
      auto r = service.Execute(listing);
      FPM_CHECK_OK(r.status());
      const std::string line = EncodeQueryResponse(r.value());
      latencies.push_back(ToMs(Clock::now() - t0));
      FPM_CHECK(r->cache == CacheOutcome::kExact) << "warm query missed";
      line_bytes = line.size();
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    const LatencyStats s = Summarize(std::move(latencies), wall_s);
    std::printf(
        "listed 1 client   %8.0f qps   p50 %.3f ms   p99 %.3f ms   "
        "(%zu-byte line)\n",
        s.qps, s.p50_ms, s.p99_ms, line_bytes);
    report.AddRow()
        .Str("mode", "warm_listing")
        .Str("task", "frequent")
        .Int("clients", 1)
        .Int("requests", kWarmListingRequests)
        .Num("qps", s.qps)
        .Num("p50_ms", s.p50_ms)
        .Num("p99_ms", s.p99_ms)
        .Int("response_bytes", line_bytes);
  }

  // ---- dominated: each threshold asked once, filtered not mined. -----
  constexpr int kDominatedRequests = 24;
  {
    std::vector<double> latencies;
    const auto start = Clock::now();
    for (int i = 1; i <= kDominatedRequests; ++i) {
      MineRequest higher = request;
      higher.query.min_support = ds.min_support + static_cast<Support>(i);
      const auto t0 = Clock::now();
      auto r = service.Execute(higher);
      latencies.push_back(ToMs(Clock::now() - t0));
      FPM_CHECK_OK(r.status());
      FPM_CHECK(r->cache == CacheOutcome::kDominated)
          << "dominated query was not answered by dominance";
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    const LatencyStats s = Summarize(std::move(latencies), wall_s);
    std::printf("domin  1 client   %8.0f qps   p50 %.3f ms   p99 %.3f ms\n",
                s.qps, s.p50_ms, s.p99_ms);
    report.AddRow()
        .Str("mode", "dominated")
        .Str("task", "frequent")
        .Int("clients", 1)
        .Int("requests", kDominatedRequests)
        .Num("qps", s.qps)
        .Num("p50_ms", s.p50_ms)
        .Num("p99_ms", s.p99_ms);
  }

  // ---- mixed tasks: the task family answered from the same cache. ----
  // Each task's first ask derives cross-task from the cached frequent
  // run (closed/maximal/top-k filter it; rules ride the memoized closed
  // listing); re-asks are exact hits on the memoized derivation.
  constexpr int kMixedWarmRequests = 50;
  {
    // The task queries ask at a higher threshold than the cached
    // frequent run: dominance still applies (cached support floor is
    // lower), and the derivation filters the big listing down before
    // the closure/rule post-passes, keeping derive_ms about the filter
    // rather than about post-processing a few hundred thousand entries.
    const Support mixed_support = ds.min_support * 4;
    const MiningQuery mixed_queries[] = {
        MiningQuery::Closed(mixed_support),
        MiningQuery::Maximal(mixed_support),
        MiningQuery::TopK(/*k=*/50, /*floor=*/mixed_support),
        MiningQuery::Rules(mixed_support, /*confidence=*/0.25),
    };
    for (const MiningQuery& query : mixed_queries) {
      MineRequest mixed = request;
      mixed.query = query;
      const auto d0 = Clock::now();
      auto derived = service.Execute(mixed);
      const double derive_ms = ToMs(Clock::now() - d0);
      FPM_CHECK_OK(derived.status());
      FPM_CHECK(derived->cache == CacheOutcome::kCrossTask)
          << TaskName(query.task) << " was not derived from the cache";

      std::vector<double> latencies;
      latencies.reserve(kMixedWarmRequests);
      const auto start = Clock::now();
      for (int i = 0; i < kMixedWarmRequests; ++i) {
        const auto t0 = Clock::now();
        auto r = service.Execute(mixed);
        latencies.push_back(ToMs(Clock::now() - t0));
        FPM_CHECK_OK(r.status());
        FPM_CHECK(r->cache == CacheOutcome::kExact)
            << TaskName(query.task) << " warm re-ask missed";
      }
      const double wall_s =
          std::chrono::duration<double>(Clock::now() - start).count();
      const LatencyStats s = Summarize(std::move(latencies), wall_s);
      std::printf(
          "mixed  %-8s  %8.0f qps   p50 %.3f ms   p99 %.3f ms   "
          "(derive %.3f ms, %llu results)\n",
          TaskName(query.task), s.qps, s.p50_ms, s.p99_ms, derive_ms,
          static_cast<unsigned long long>(derived->num_frequent));
      report.AddRow()
          .Str("mode", "mixed")
          .Str("task", TaskName(query.task))
          .Int("clients", 1)
          .Int("requests", kMixedWarmRequests)
          .Num("qps", s.qps)
          .Num("p50_ms", s.p50_ms)
          .Num("p99_ms", s.p99_ms)
          .Num("derive_ms", derive_ms)
          .Int("num_results", derived->num_frequent);
    }
  }

  // ---- concurrent: C blocking clients on the warm path. --------------
  const unsigned hw = std::thread::hardware_concurrency();
  const int clients = static_cast<int>(std::min(8u, hw != 0 ? hw : 4u));
  constexpr int kPerClient = 100;
  {
    std::vector<std::vector<double>> per_client(
        static_cast<size_t>(clients));
    const auto start = Clock::now();
    {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          auto& latencies = per_client[static_cast<size_t>(c)];
          latencies.reserve(kPerClient);
          for (int i = 0; i < kPerClient; ++i) {
            const auto t0 = Clock::now();
            auto r = service.Execute(request);
            latencies.push_back(ToMs(Clock::now() - t0));
            FPM_CHECK_OK(r.status());
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::vector<double> pooled;
    for (auto& v : per_client) {
      pooled.insert(pooled.end(), v.begin(), v.end());
    }
    const LatencyStats s = Summarize(std::move(pooled), wall_s);
    std::printf("warm  %2d clients  %8.0f qps   p50 %.3f ms   p99 %.3f ms\n",
                clients, s.qps, s.p50_ms, s.p99_ms);
    report.AddRow()
        .Str("mode", "warm_concurrent")
        .Str("task", "frequent")
        .Int("clients", static_cast<uint64_t>(clients))
        .Int("requests", static_cast<uint64_t>(clients) * kPerClient)
        .Num("qps", s.qps)
        .Num("p50_ms", s.p50_ms)
        .Num("p99_ms", s.p99_ms);
  }

  const ResultCacheStats cache = service.cache().stats();
  std::printf(
      "\ncache: %llu exact hits, %llu dominated, %llu cross-task, "
      "%llu misses\n",
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.dominated_hits),
      static_cast<unsigned long long>(cache.cross_task_hits),
      static_cast<unsigned long long>(cache.misses));
  report.AddRow()
      .Str("mode", "cache_totals")
      .Int("cache_hits", cache.hits)
      .Int("cache_dominated_hits", cache.dominated_hits)
      .Int("cache_cross_task_hits", cache.cross_task_hits)
      .Int("cache_misses", cache.misses);
  report.Write();
  std::filesystem::remove(path);

  // The whole point was to measure the cached paths.
  const bool served_from_cache =
      cache.hits > 0 && cache.dominated_hits > 0 &&
      cache.cross_task_hits == 4 && cache.misses == 1;
  if (!served_from_cache) {
    std::fprintf(stderr, "FAIL: cache did not serve the measured load\n");
    return 1;
  }
  return 0;
}
