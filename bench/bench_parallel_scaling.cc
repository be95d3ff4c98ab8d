// Parallel scaling — first-item equivalence-class task parallelism
// (fpm/parallel/) over the sequential kernels. Mines the two Quest
// datasets (DS1, DS2) with Eclat, LCM and FP-Growth at 1/2/4/8 threads
// through the parallel driver (its rows are tagged "nested", the
// driver's name) and reports speedup over the plain sequential kernel.
// Deterministic merging is on, so every row reproduces the sequential
// checksum.
//
// Three more inputs have fixed sizes (FPM_BENCH_SCALE does not touch
// them), because each stands for a shape the decomposition must handle:
//   - "Quest-deep": quest T60I10D3K with gen_dataset's default seed at
//     support 30, 814,023 itemsets over 998 classes: deep answers and
//     uneven classes. Its transactions' ranks are dense, so the
//     decomposition orders them through its bitmap.
//   - "Quest-wide": quest T60I10D15K with gen_dataset's default seed at
//     support 450 (3%), the mine_parallel benchmark's shape: 908
//     frequent items but few frequent pairs (1,014 itemsets), so the
//     per-class count over 25M projected entries, not the kernels, sets
//     the time. It is dense and unweighted, so the classes are counted
//     from the rank bitmaps.
//   - "WebDocs-sparse": the WebDocs stand-in with 60K documents of 8
//     items on average over 40K items, at support 2: 26,657 frequent
//     items over 481,787 entries. Few entries per frequent item cap the
//     tid-block count, short transactions spread over many words of
//     ranks mostly take the decomposition's sort fallback, and rank
//     bitmaps would take 200 MB, so its classes are counted row by
//     row. It runs LCM
//     and FP-Growth only: the sequential Eclat baseline takes about 49 s
//     there on one core, even on the tid lists its fill of 0.0003
//     picks, where sequential LCM takes under 2 s.
//
// Besides the table, the bench writes every row to
// BENCH_parallel_scaling.json via the shared BenchReport writer
// (directory overridable with FPM_BENCH_JSON_DIR). The metrics registry
// is enabled while measuring, so each parallel row carries the thread
// pool's submit/steal/idle-wait deltas of its best run — steals > 0 is
// the signature of real work redistribution — and the fpm.task.*
// load-balance gauges (max and mean busy seconds across workers, and
// their ratio). Every row labels its build time: "wall" for the
// sequential kernel, "task_sum" (summed over class tasks, so it can
// exceed the wall time) for the parallel driver; prepare and mine are
// wall time in both.
//
// Speedup is bounded by the host's core count: on a single-core
// machine every thread count measures ~1.0x (plus task overhead).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "fpm/core/mine.h"
#include "fpm/obs/metrics.h"
#include "fpm/parallel/nested_miner.h"
#include "fpm/parallel/thread_pool.h"
#include "fpm/perf/report.h"

namespace {

fpm::bench::BenchDataset MakeDeepAnswers() {
  const fpm::QuestParams p = fpm::QuestParams::FromName("T60I10D3K").value();
  auto db = fpm::GenerateQuest(p);
  FPM_CHECK_OK(db.status());
  return {"Quest-deep", p.Name(), std::move(db).value(), 30};
}

fpm::bench::BenchDataset MakeWideAnswers() {
  const fpm::QuestParams p = fpm::QuestParams::FromName("T60I10D15K").value();
  auto db = fpm::GenerateQuest(p);
  FPM_CHECK_OK(db.status());
  return {"Quest-wide", p.Name(), std::move(db).value(), 450};
}

fpm::bench::BenchDataset MakeManyFrequentItems() {
  fpm::WebDocsLikeParams p;
  p.num_transactions = 60000;
  p.avg_length = 8;
  p.vocabulary = 40000;
  auto db = fpm::GenerateWebDocsLike(p);
  FPM_CHECK_OK(db.status());
  return {"WebDocs-sparse", "WebDocs-like, 60K docs of ~8 items",
          std::move(db).value(), 2};
}

// "1.73x" from the fpm.task.imbalance_milli gauge, "-" when the row
// recorded no measured task work.
std::string FormatImbalance(uint64_t imbalance_milli) {
  if (imbalance_milli == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx",
                static_cast<double>(imbalance_milli) / 1000.0);
  return buf;
}

}  // namespace

int main() {
  using namespace fpm;
  bench::PrintHeader("bench_parallel_scaling",
                     "task-parallel scaling of the sequential kernels");
  std::printf("hardware threads: %u\n\n", ThreadPool::HardwareThreads());

  const double scale = BenchScale();
  const int repeats = BenchRepeats();
  // Each input with the kernels it runs.
  const std::vector<Algorithm> all = {Algorithm::kEclat, Algorithm::kLcm,
                                      Algorithm::kFpGrowth};
  const std::vector<Algorithm> no_eclat = {Algorithm::kLcm,
                                           Algorithm::kFpGrowth};
  std::vector<std::pair<bench::BenchDataset, std::vector<Algorithm>>> inputs;
  inputs.emplace_back(bench::MakeDs1(scale), all);
  inputs.emplace_back(bench::MakeDs2(scale), all);
  inputs.emplace_back(MakeDeepAnswers(), all);
  inputs.emplace_back(MakeWideAnswers(), all);
  inputs.emplace_back(MakeManyFrequentItems(), no_eclat);

  bench::BenchReport report("parallel_scaling",
                            "task-parallel scaling of the sequential kernels");
  bench::ScopedPerfSampler perf_sampler;

  // Attach pool counter deltas to every Measurement (harness.cc snapshots
  // the default registry around each repeat when it is enabled).
  MetricsRegistry::Default().set_enabled(true);

  for (const auto& [ds, kernels] : inputs) {
    std::printf("== %s (%s), support %u ==\n", ds.name.c_str(),
                ds.description.c_str(), ds.min_support);
    ReportTable table({"kernel", "driver", "threads", "mine time", "speedup",
                       "steals", "imbalance", "itemsets"});
    for (Algorithm algorithm : kernels) {
      MineOptions options;
      options.algorithm = algorithm;
      options.min_support = ds.min_support;

      // Sequential baseline: the kernel itself, no parallel driver.
      auto baseline = CreateMiner(options);
      FPM_CHECK_OK(baseline.status());
      const Measurement base =
          MeasureMiner(**baseline, ds.db, ds.min_support, repeats);
      table.AddRow({AlgorithmName(algorithm), "seq", "1",
                    FormatSeconds(base.seconds), "1.00x", "-", "-",
                    FormatCount(base.num_frequent)});
      // threads = 0 marks the unwrapped sequential baseline.
      report.AddRow()
          .Str("dataset", ds.name)
          .Str("kernel", AlgorithmName(algorithm))
          .Str("driver", "seq")
          .Int("threads", 0)
          .Str("build_time", "wall")
          .Num("speedup", 1.0)
          .Measurement(base);

      for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        // The task gauges persist in the registry between runs; reset so
        // a row cannot inherit the previous row's load-balance values
        // through the snapshot.
        MetricsRegistry::Default().Reset();
        // The driver is built directly: CreateMiner hands out the bare
        // kernel at 1 thread, and the 1-thread row must time the class
        // decomposition against it.
        NestedParallelMinerOptions driver;
        driver.execution.num_threads = threads;
        driver.kernel_name = (*baseline)->name();
        driver.factory = [algorithm, patterns = options.patterns] {
          return CreateMiner(algorithm, patterns);
        };
        NestedParallelMiner miner(std::move(driver));
        const Measurement m =
            MeasureMiner(miner, ds.db, ds.min_support, repeats);
        // ComputeSpeedups also cross-checks the checksum against the
        // sequential baseline — an exactness gate, not just a timer.
        const auto rows = ComputeSpeedups(base, {m});
        const uint64_t steals = m.metrics.counter("fpm.pool.steals");
        const uint64_t imbalance_milli =
            m.metrics.gauge("fpm.task.imbalance_milli");
        table.AddRow({AlgorithmName(algorithm), "nested",
                      std::to_string(threads), FormatSeconds(m.seconds),
                      FormatSpeedup(rows[0].speedup), FormatCount(steals),
                      FormatImbalance(imbalance_milli),
                      FormatCount(m.num_frequent)});
        // Load balance of the best run: busiest and mean per-worker task
        // seconds, and their ratio (1.0 = perfectly even).
        const double busy_max =
            static_cast<double>(m.metrics.gauge("fpm.task.busy_max_micros")) /
            1e6;
        const double busy_mean =
            static_cast<double>(m.metrics.gauge("fpm.task.busy_mean_micros")) /
            1e6;
        report.AddRow()
            .Str("dataset", ds.name)
            .Str("kernel", AlgorithmName(algorithm))
            .Str("driver", "nested")
            .Int("threads", threads)
            .Str("build_time", "task_sum")
            .Num("speedup", rows[0].speedup)
            .Int("pool_submits", m.metrics.counter("fpm.pool.submits"))
            .Int("pool_steals", steals)
            .Int("pool_idle_waits", m.metrics.counter("fpm.pool.idle_waits"))
            .Num("task_busy_max_seconds", busy_max)
            .Num("task_busy_mean_seconds", busy_mean)
            .Num("task_imbalance",
                 static_cast<double>(imbalance_milli) / 1000.0)
            .Measurement(m);
      }
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  std::printf(
      "Reading the table: \"seq\" is the unwrapped kernel; the threads=1\n"
      "rows run the class driver on one thread, so they time the\n"
      "decomposition (ranking, row index, per-class kernel restarts on\n"
      "smaller databases) against the kernel; higher rows add real\n"
      "concurrency.\n"
      "imbalance is the max/mean per-worker busy time. Single-core hosts\n"
      "show ~1x across the board.\n\n");

  report.Write();
  return 0;
}
