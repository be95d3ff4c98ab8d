// Cluster fan-out — the SON two-phase scatter path (DESIGN.md §19)
// measured in-process, without sockets: the exact MineShardPartition /
// CountShardPartition / Merge* functions every owner and coordinator
// runs for shard_query, over fan-out widths 1/2/4/8. Width 1 is the
// degenerate single-owner case (phase 1 IS the direct mine, phase 2
// recounts it), so the wider rows read as "what the network buys
// before paying for the network".
//
// Every row is validated against a direct sequential mine of the same
// dataset: the merged itemset/support multiset must be exactly equal
// (the SON completeness + exact-recount guarantee). The bench aborts
// on any mismatch — it is an exactness gate as much as a timer.
//
// Rows land in BENCH_cluster_fanout.json (schema in EXPERIMENTS.md):
//   shards       fan-out width k
//   phase1_ms    sum of per-shard local mines at the scaled threshold
//   count_ms     sum of per-shard exact candidate recounts
//   total_ms     phase1 + merge + count + filter, end to end
//   candidates   merged candidate-set size after phase 1
//   num_results  globally frequent itemsets after the filter
//
// The per-shard times are summed, not maxed: this is the single-node
// CPU cost of the distributed plan. A real cluster divides phase1/count
// by the healthy-owner count and adds two network round trips.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "fpm/core/partition.h"
#include "fpm/core/patterns.h"
#include "fpm/perf/report.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

int main() {
  using namespace fpm;
  bench::PrintHeader("bench_cluster_fanout",
                     "SON scatter fan-out (DESIGN.md §19) vs direct mine");

  const double scale = BenchScale();
  const int repeats = BenchRepeats();
  std::vector<bench::BenchDataset> datasets;
  datasets.push_back(bench::MakeDs1(scale));
  datasets.push_back(bench::MakeDs2(scale));

  bench::BenchReport report("cluster_fanout",
                            "SON scatter fan-out vs direct mine");

  for (const bench::BenchDataset& ds : datasets) {
    // Twice the Table-6 threshold: SON's phase-1 false-positive growth
    // is superlinear in the result count, so the paper support drowns
    // the fan-out signal in candidate explosion at small scales. The
    // relative comparison across widths is what this bench measures.
    const Support support = ds.min_support * 2;
    std::printf("== %s (%s), support %u, LCM ==\n", ds.name.c_str(),
                ds.description.c_str(), support);

    // The exactness reference: one full-database "shard".
    auto direct = MineShardPartition(ds.db, ShardSlice{0, 1}, support,
                                     Algorithm::kLcm, PatternSet::None());
    FPM_CHECK_OK(direct.status());
    std::vector<CollectingSink::Entry> want = direct.value();
    std::sort(want.begin(), want.end());

    ReportTable table({"shards", "phase1", "count", "total", "candidates",
                       "results"});
    for (uint32_t shards : {1u, 2u, 4u, 8u}) {
      double best_phase1 = 0.0, best_count = 0.0, best_total = 0.0;
      size_t candidates_size = 0, num_results = 0;
      for (int rep = 0; rep < repeats; ++rep) {
        const Clock::time_point t0 = Clock::now();
        std::vector<std::vector<CollectingSink::Entry>> locals;
        for (uint32_t p = 0; p < shards; ++p) {
          auto local =
              MineShardPartition(ds.db, ShardSlice{p, shards}, support,
                                 Algorithm::kLcm, PatternSet::None());
          FPM_CHECK_OK(local.status());
          locals.push_back(std::move(local).value());
        }
        const double phase1_ms = MsSince(t0);

        const std::vector<Itemset> candidates =
            MergeShardCandidates(std::move(locals));

        const Clock::time_point t1 = Clock::now();
        std::vector<std::vector<Support>> per_shard;
        for (uint32_t p = 0; p < shards; ++p) {
          auto counts = CountShardPartition(ds.db, ShardSlice{p, shards},
                                            candidates);
          FPM_CHECK_OK(counts.status());
          per_shard.push_back(std::move(counts).value());
        }
        const double count_ms = MsSince(t1);

        std::vector<CollectingSink::Entry> merged =
            MergeShardCounts(candidates, per_shard, support);
        const double total_ms = MsSince(t0);

        std::sort(merged.begin(), merged.end());
        FPM_CHECK(merged == want)
            << "shard merge diverged from the direct mine at k=" << shards;

        if (rep == 0 || total_ms < best_total) {
          best_phase1 = phase1_ms;
          best_count = count_ms;
          best_total = total_ms;
        }
        candidates_size = candidates.size();
        num_results = merged.size();
      }
      char phase1_buf[32], count_buf[32], total_buf[32];
      std::snprintf(phase1_buf, sizeof(phase1_buf), "%.1f ms", best_phase1);
      std::snprintf(count_buf, sizeof(count_buf), "%.1f ms", best_count);
      std::snprintf(total_buf, sizeof(total_buf), "%.1f ms", best_total);
      table.AddRow({std::to_string(shards), phase1_buf, count_buf, total_buf,
                    FormatCount(candidates_size), FormatCount(num_results)});
      report.AddRow()
          .Str("dataset", ds.name)
          .Str("kernel", "lcm")
          .Int("shards", shards)
          .Num("phase1_ms", best_phase1)
          .Num("count_ms", best_count)
          .Num("total_ms", best_total)
          .Int("candidates", candidates_size)
          .Int("num_results", num_results);
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  std::printf(
      "Reading the table: every row reproduced the direct mine exactly\n"
      "(the bench aborts otherwise). \"candidates\" grows with the shard\n"
      "count because narrower partitions admit locally-frequent noise —\n"
      "that growth is the SON false-positive cost phase 2 pays to\n"
      "recount. Times are summed single-node CPU; a k-owner cluster\n"
      "divides phase1/count by its healthy-owner count.\n\n");

  report.Write();
  return 0;
}
