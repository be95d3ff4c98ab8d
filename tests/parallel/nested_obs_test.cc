// Observability of the parallel driver's class tasks: the fpm.task.*
// wall histogram (one observation per class) and load-balance gauges.

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/core/mine.h"
#include "fpm/dataset/quest_gen.h"
#include "fpm/obs/metrics.h"
#include "fpm/obs/trace.h"
#include "fpm/parallel/nested_miner.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

Database SmallQuestDb() {
  QuestParams p;
  p.num_transactions = 400;
  p.avg_transaction_len = 8;
  p.avg_pattern_len = 3;
  p.num_items = 60;
  p.num_patterns = 40;
  auto db = GenerateQuest(p);
  EXPECT_TRUE(db.ok());
  return db.value();
}

NestedParallelMiner MakeNested(uint32_t threads) {
  NestedParallelMinerOptions no;
  no.execution.num_threads = threads;
  no.kernel_name = "eclat";
  no.factory = [] {
    return CreateMiner(Algorithm::kEclat, PatternSet::None());
  };
  return NestedParallelMiner(std::move(no));
}

class NestedObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Default().Clear();
    Tracer::Default().set_enabled(true);
    MetricsRegistry::Default().Reset();
    MetricsRegistry::Default().set_enabled(true);
  }
  void TearDown() override {
    Tracer::Default().set_enabled(false);
    Tracer::Default().Clear();
    MetricsRegistry::Default().set_enabled(false);
    MetricsRegistry::Default().Reset();
  }
};

TEST_F(NestedObsTest, ClassTasksRecordedAtFourThreads) {
  const Database db = SmallQuestDb();
  NestedParallelMiner miner = MakeNested(/*threads=*/4);
  CollectingSink sink;
  ASSERT_TRUE(miner.Mine(db, 8, &sink).ok());

  const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  const uint64_t classes = snap.counter("fpm.parallel.classes");
  EXPECT_GT(classes, 0u);

  // A class is the only task: one wall observation per class.
  const HistogramSample* walls = snap.histogram("fpm.task.wall_micros");
  ASSERT_NE(walls, nullptr);
  EXPECT_EQ(walls->count(), classes);

  // Load-balance gauges: max over workers >= mean over workers, and the
  // imbalance ratio is >= 1000 (milli) whenever any work was measured.
  auto registered = [&snap](std::string_view name) {
    return std::any_of(snap.gauges.begin(), snap.gauges.end(),
                       [name](const GaugeSample& g) { return g.name == name; });
  };
  EXPECT_TRUE(registered("fpm.task.busy_max_micros"));
  EXPECT_TRUE(registered("fpm.task.busy_mean_micros"));
  EXPECT_TRUE(registered("fpm.task.imbalance_milli"));
  const uint64_t busy_max = snap.gauge("fpm.task.busy_max_micros");
  const uint64_t busy_mean = snap.gauge("fpm.task.busy_mean_micros");
  EXPECT_GE(busy_max, busy_mean);
  if (busy_mean > 0) {
    EXPECT_GE(snap.gauge("fpm.task.imbalance_milli"), 1000u);
  }
}

TEST_F(NestedObsTest, InlinePathRecordsEveryClass) {
  // num_threads == 1 mines every class on the calling thread; the class
  // tasks are still measured.
  const Database db = SmallQuestDb();
  NestedParallelMiner miner = MakeNested(/*threads=*/1);
  CollectingSink sink;
  ASSERT_TRUE(miner.Mine(db, 8, &sink).ok());

  const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  const HistogramSample* walls = snap.histogram("fpm.task.wall_micros");
  ASSERT_NE(walls, nullptr);
  EXPECT_EQ(walls->count(), snap.counter("fpm.parallel.classes"));
}

TEST_F(NestedObsTest, TaskTelemetryIsClassWallAndBalanceOnly) {
  // Classes are the only task kind, so the fpm.task.* family is the
  // per-class wall histogram and the three load-balance gauges, with no
  // per-subtree counter or histogram beside them.
  const Database db = SmallQuestDb();
  NestedParallelMiner miner = MakeNested(/*threads=*/4);
  CollectingSink sink;
  ASSERT_TRUE(miner.Mine(db, 8, &sink).ok());

  const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  std::vector<std::string> task_metrics;
  auto collect = [&task_metrics](const auto& samples) {
    for (const auto& s : samples) {
      if (s.name.starts_with("fpm.task.")) task_metrics.push_back(s.name);
    }
  };
  collect(snap.counters);
  collect(snap.gauges);
  collect(snap.histograms);
  std::sort(task_metrics.begin(), task_metrics.end());
  EXPECT_EQ(task_metrics,
            (std::vector<std::string>{
                "fpm.task.busy_max_micros", "fpm.task.busy_mean_micros",
                "fpm.task.imbalance_milli", "fpm.task.wall_micros"}));
}

TEST_F(NestedObsTest, HelpRunsCounterRegistered) {
  // A worker that joins a group with pending tasks executes them via
  // HelpWhile; the counter must at least be registered (whether any
  // helping happened depends on scheduling).
  const Database db = SmallQuestDb();
  NestedParallelMiner miner = MakeNested(/*threads=*/2);
  CollectingSink sink;
  ASSERT_TRUE(miner.Mine(db, 8, &sink).ok());

  const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  EXPECT_TRUE(std::any_of(
      snap.counters.begin(), snap.counters.end(),
      [](const CounterSample& c) { return c.name == "fpm.pool.help_runs"; }));
}

}  // namespace
}  // namespace fpm
