// Observability of the parallel driver: exactly one "class" trace span
// per first-item equivalence class (the only task kind), and
// pool/submit/steal counters in the default metrics registry.

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/core/mine.h"
#include "fpm/dataset/quest_gen.h"
#include "fpm/obs/metrics.h"
#include "fpm/obs/trace.h"
#include "fpm/parallel/thread_pool.h"
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

// Enables the default tracer + registry for one test and restores the
// disabled state afterwards so the instrumentation stays inert for the
// rest of the suite.
class ParallelObsTest : public ::testing::Test {
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

TEST_F(ParallelObsTest, OneClassSpanPerEquivalenceClass) {
  const Database db = SmallQuestDb();
  MineOptions options;
  options.algorithm = Algorithm::kEclat;
  options.min_support = 8;
  options.execution.num_threads = 4;
  CollectingSink sink;
  ASSERT_TRUE(Mine(db, options, &sink).ok());

  // Every frequent item owns exactly one equivalence class.
  size_t num_frequent_items = 0;
  for (const auto& entry : sink.results()) {
    if (entry.first.size() == 1) ++num_frequent_items;
  }
  ASSERT_GT(num_frequent_items, 0u);

  const std::vector<TraceSpan> spans = Tracer::Default().CollectSpans();
  std::vector<const TraceSpan*> class_spans;
  for (const TraceSpan& s : spans) {
    if (s.name == "class") class_spans.push_back(&s);
    // Classes are the only tasks: no kernel hands work back to the pool.
    EXPECT_NE(s.name, "task");
  }
  EXPECT_EQ(class_spans.size(), num_frequent_items);

  // Each class span names a distinct owner item and reports its size and
  // output; the class spans alone add up to the full result set.
  std::set<uint64_t> owners;
  uint64_t total_itemsets = 0;
  for (const TraceSpan* s : class_spans) {
    uint64_t item = 0, itemsets = 0;
    bool has_entries = false;
    for (const auto& [key, value] : s->args) {
      if (key == "item") {
        item = value;
        owners.insert(value);
      } else if (key == "entries") {
        has_entries = true;
      } else if (key == "itemsets") {
        itemsets = value;
      }
    }
    EXPECT_TRUE(has_entries) << "class span for item " << item;
    total_itemsets += itemsets;
  }
  EXPECT_EQ(owners.size(), class_spans.size()) << "duplicate class owners";
  EXPECT_EQ(total_itemsets, sink.results().size());

  // The phase spans and the deterministic merge span are present too.
  auto has_span = [&spans](std::string_view name) {
    return std::any_of(spans.begin(), spans.end(),
                       [name](const TraceSpan& s) { return s.name == name; });
  };
  EXPECT_TRUE(has_span("prepare"));
  EXPECT_TRUE(has_span("mine"));
  EXPECT_TRUE(has_span("merge"));
}

TEST_F(ParallelObsTest, ClassCounterAndHistogramMatchSpans) {
  const Database db = SmallQuestDb();
  MineOptions options;
  options.algorithm = Algorithm::kLcm;
  options.min_support = 8;
  options.execution.num_threads = 2;
  CollectingSink sink;
  ASSERT_TRUE(Mine(db, options, &sink).ok());

  size_t class_spans = 0;
  for (const TraceSpan& s : Tracer::Default().CollectSpans()) {
    if (s.name == "class") ++class_spans;
  }
  const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(snap.counter("fpm.parallel.classes"), class_spans);
  const HistogramSample* sizes = snap.histogram("fpm.parallel.class_entries");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), class_spans);
}

TEST_F(ParallelObsTest, PoolCountersTrackSubmitsAndSteals) {
  // Drive the pool directly so the submit count is exact.
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  constexpr uint64_t kTasks = 64;
  {
    ThreadPool pool(4);
    std::atomic<uint64_t> ran{0};
    for (uint64_t i = 0; i < kTasks; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(ran.load(), kTasks);
  }
  const MetricsSnapshot delta =
      MetricsRegistry::Default().Snapshot(/*per_thread=*/true).DeltaSince(
          before);
  EXPECT_EQ(delta.counter("fpm.pool.submits"), kTasks);
  // Steals and idle waits depend on scheduling; only their registration
  // is guaranteed.
  auto registered = [&delta](std::string_view name) {
    return std::any_of(
        delta.counters.begin(), delta.counters.end(),
        [name](const CounterSample& c) { return c.name == name; });
  };
  EXPECT_TRUE(registered("fpm.pool.steals"));
  EXPECT_TRUE(registered("fpm.pool.idle_waits"));
}

}  // namespace
}  // namespace fpm
