// Observability of the sequential front door: Miner::Mine() wraps every
// frequent-itemset call in one trace span named after the configured
// miner and records the fpm.mine.* metrics, alike for every kernel. The
// parallel driver's class tasks enter the kernels through this door too.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "fpm/algo/eclat/eclat_miner.h"
#include "fpm/algo/fpgrowth/fpgrowth_miner.h"
#include "fpm/algo/itemset_sink.h"
#include "fpm/algo/lcm/lcm_miner.h"
#include "fpm/obs/metrics.h"
#include "fpm/obs/trace.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

struct Kernel {
  const char* name;
  std::unique_ptr<Miner> (*make)();
};

// gtest would otherwise print the struct's bytes, factory address included,
// and the test's listed name would move with every process under ASLR.
void PrintTo(const Kernel& kernel, std::ostream* os) { *os << kernel.name; }

Database SmallDb() {
  return testutil::MakeDb({{0, 1, 2}, {0, 1}, {0, 2, 3}, {1, 2}, {0, 1, 2, 3}});
}

std::optional<uint64_t> SpanArg(const TraceSpan& span, std::string_view key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return std::nullopt;
}

// Enables the default tracer + registry for one test and restores the
// disabled state afterwards.
class MinerObsTest : public ::testing::TestWithParam<Kernel> {
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

TEST_P(MinerObsTest, FrequentMineRecordsOneSpanAndMetrics) {
  const std::unique_ptr<Miner> miner = GetParam().make();
  CollectingSink sink;
  Result<MineStats> stats = miner->Mine(SmallDb(), 2, &sink);
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->num_frequent, 0u);

  // One top-level span per call; the kernel's phase spans nest in it.
  const std::vector<TraceSpan> spans = Tracer::Default().CollectSpans();
  const std::string name = miner->name();
  ASSERT_EQ(std::count_if(spans.begin(), spans.end(),
                          [&name](const TraceSpan& s) {
                            return s.name == name;
                          }),
            1);
  const TraceSpan& span = *std::find_if(
      spans.begin(), spans.end(),
      [&name](const TraceSpan& s) { return s.name == name; });
  EXPECT_EQ(span.depth, 0u);
  EXPECT_EQ(SpanArg(span, "itemsets"), stats->num_frequent);
  EXPECT_EQ(SpanArg(span, "peak_structure_bytes"),
            stats->peak_structure_bytes);

  const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(snap.counter("fpm.mine.calls"), 1u);
  EXPECT_EQ(snap.counter("fpm.mine.itemsets"), stats->num_frequent);
  EXPECT_EQ(snap.gauge("fpm.mine.peak_structure_bytes"),
            stats->peak_structure_bytes);
  const HistogramSample* per_call =
      snap.histogram("fpm.mine.itemsets_per_call");
  ASSERT_NE(per_call, nullptr);
  EXPECT_EQ(per_call->count(), 1u);
  EXPECT_EQ(per_call->sum, stats->num_frequent);
}

TEST_P(MinerObsTest, RejectedCallRecordsNothing) {
  const std::unique_ptr<Miner> miner = GetParam().make();
  CollectingSink sink;
  EXPECT_FALSE(miner->Mine(SmallDb(), /*min_support=*/0, &sink).ok());
  EXPECT_FALSE(miner->Mine(SmallDb(), 2, nullptr).ok());
  EXPECT_TRUE(sink.results().empty());

  EXPECT_TRUE(Tracer::Default().CollectSpans().empty());
  const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(snap.counter("fpm.mine.calls"), 0u);
  EXPECT_EQ(snap.counter("fpm.mine.itemsets"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, MinerObsTest,
    ::testing::Values(
        Kernel{"lcm",
               +[]() -> std::unique_ptr<Miner> {
                 return std::make_unique<LcmMiner>();
               }},
        Kernel{"eclat",
               +[]() -> std::unique_ptr<Miner> {
                 return std::make_unique<EclatMiner>();
               }},
        Kernel{"fpgrowth",
               +[]() -> std::unique_ptr<Miner> {
                 return std::make_unique<FpGrowthMiner>();
               }}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace fpm
