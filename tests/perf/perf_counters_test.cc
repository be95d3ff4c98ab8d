#include "fpm/perf/perf_counters.h"

#include <gtest/gtest.h>

#include "fpm/perf/perf_sampler.h"
#include "fpm/perf/platform_info.h"

namespace fpm {
namespace {

TEST(PlatformInfoTest, DetectsSomething) {
  const PlatformInfo info = PlatformInfo::Detect();
  EXPECT_GE(info.logical_cpus, 1);
  EXPECT_FALSE(info.cpu_model.empty());
  const std::string s = info.ToString();
  EXPECT_NE(s.find("Processor type"), std::string::npos);
  EXPECT_NE(s.find("L1 data cache"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Group read-buffer parsing and multiplex scaling: pure functions over a
// synthetic PERF_FORMAT_GROUP buffer, no syscall involved.

constexpr PerfEventId kTwo[] = {PerfEventId::kCycles,
                                PerfEventId::kInstructions};

TEST(ParseGroupReadBufferTest, PassthroughWhenNotMultiplexed) {
  // {nr, time_enabled, time_running, values...} with enabled == running.
  const uint64_t words[] = {2, 1000, 1000, 500, 250};
  auto reading = ParseGroupReadBuffer(words, kTwo);
  ASSERT_TRUE(reading.ok()) << reading.status();
  EXPECT_FALSE(reading->multiplexed());
  ASSERT_EQ(reading->events.size(), 2u);
  EXPECT_EQ(reading->events[0].id, PerfEventId::kCycles);
  EXPECT_EQ(reading->events[0].raw, 500u);
  EXPECT_EQ(reading->events[0].value, 500u);
  EXPECT_EQ(reading->events[1].id, PerfEventId::kInstructions);
  EXPECT_EQ(reading->events[1].value, 250u);
}

TEST(ParseGroupReadBufferTest, ScalesMultiplexedCounts) {
  // Group ran half the window: estimates double the raw counts.
  const uint64_t words[] = {2, 2000, 1000, 500, 251};
  auto reading = ParseGroupReadBuffer(words, kTwo);
  ASSERT_TRUE(reading.ok()) << reading.status();
  EXPECT_TRUE(reading->multiplexed());
  EXPECT_EQ(reading->events[0].raw, 500u);
  EXPECT_EQ(reading->events[0].value, 1000u);
  EXPECT_EQ(reading->events[1].value, 502u);
}

TEST(ParseGroupReadBufferTest, RoundsToNearest) {
  // 100 * 3000/2000 = 150 exactly; 101 * 3/2 = 151.5 -> 152.
  const uint64_t words[] = {2, 3000, 2000, 100, 101};
  auto reading = ParseGroupReadBuffer(words, kTwo);
  ASSERT_TRUE(reading.ok());
  EXPECT_EQ(reading->events[0].value, 150u);
  EXPECT_EQ(reading->events[1].value, 152u);
}

TEST(ParseGroupReadBufferTest, NeverScheduledReadsZero) {
  const uint64_t words[] = {2, 5000, 0, 123, 456};
  auto reading = ParseGroupReadBuffer(words, kTwo);
  ASSERT_TRUE(reading.ok());
  EXPECT_EQ(reading->events[0].value, 0u);
  EXPECT_EQ(reading->events[1].value, 0u);
  // Raw values survive for diagnostics.
  EXPECT_EQ(reading->events[0].raw, 123u);
}

TEST(ParseGroupReadBufferTest, RejectsShortAndMismatchedBuffers) {
  const uint64_t header_only[] = {2, 1000};
  EXPECT_FALSE(ParseGroupReadBuffer(header_only, kTwo).ok());
  const uint64_t wrong_nr[] = {3, 1000, 1000, 1, 2, 3};
  EXPECT_FALSE(ParseGroupReadBuffer(wrong_nr, kTwo).ok());
  const uint64_t truncated[] = {2, 1000, 1000, 1};
  EXPECT_FALSE(ParseGroupReadBuffer(truncated, kTwo).ok());
}

TEST(ParseGroupReadBufferTest, FindLocatesEventsById) {
  const uint64_t words[] = {2, 10, 10, 7, 9};
  auto reading = ParseGroupReadBuffer(words, kTwo);
  ASSERT_TRUE(reading.ok());
  const PerfEventReading* ins = reading->Find(PerfEventId::kInstructions);
  ASSERT_NE(ins, nullptr);
  EXPECT_EQ(ins->value, 9u);
  EXPECT_EQ(reading->Find(PerfEventId::kBranchMisses), nullptr);
}

TEST(PerfEventNameTest, NamesAreStableSnakeCase) {
  EXPECT_EQ(PerfEventName(PerfEventId::kCycles), "cycles");
  EXPECT_EQ(PerfEventName(PerfEventId::kInstructions), "instructions");
  EXPECT_EQ(PerfEventName(PerfEventId::kCacheMisses), "cache_misses");
  EXPECT_EQ(PerfEventName(PerfEventId::kL1dReadMisses), "l1d_read_misses");
  EXPECT_EQ(PerfEventName(PerfEventId::kDtlbReadMisses), "dtlb_read_misses");
  EXPECT_EQ(PerfCounterGroup::DefaultEvents().size(),
            static_cast<size_t>(kNumPerfEvents));
}

// ---------------------------------------------------------------------------
// Derived gauges (perf_sampler.h helper) — pure computation.

TEST(DerivedPerfGaugesTest, ComputesCpiAndMpkiInMilliUnits) {
  const std::vector<std::pair<std::string, uint64_t>> counters = {
      {"cycles", 3000}, {"instructions", 2000}, {"cache_misses", 10},
      {"dtlb_read_misses", 4}};
  std::vector<std::pair<std::string, uint64_t>> gauges;
  AppendDerivedPerfGauges(counters, &gauges);
  ASSERT_EQ(gauges.size(), 3u);
  EXPECT_EQ(gauges[0].first, "cpi_milli");
  EXPECT_EQ(gauges[0].second, 1500u);  // CPI 1.5
  EXPECT_EQ(gauges[1].first, "cache_mpki_milli");
  EXPECT_EQ(gauges[1].second, 5000u);  // 10 misses / 2 kilo-instr = 5 MPKI
  EXPECT_EQ(gauges[2].first, "dtlb_mpki_milli");
  EXPECT_EQ(gauges[2].second, 2000u);
}

TEST(DerivedPerfGaugesTest, SkipsRatiosWithMissingOrZeroDenominator) {
  std::vector<std::pair<std::string, uint64_t>> gauges;
  AppendDerivedPerfGauges({{"cycles", 100}}, &gauges);
  EXPECT_TRUE(gauges.empty());
  AppendDerivedPerfGauges({{"cycles", 100}, {"instructions", 0}}, &gauges);
  EXPECT_TRUE(gauges.empty());
  // Instructions alone derive nothing either.
  AppendDerivedPerfGauges({{"instructions", 100}}, &gauges);
  EXPECT_TRUE(gauges.empty());
}

// ---------------------------------------------------------------------------
// Live smoke tests: skip (never fail) where the kernel refuses
// perf_event_open — the common container case.

TEST(PerfCounterGroupTest, CountsWorkWhenAvailable) {
  auto group = PerfCounterGroup::Create();
  if (!group.ok()) {
    GTEST_SKIP() << "perf counters unavailable: " << group.status();
  }
  EXPECT_FALSE(group->events().empty());
  for (const auto& [id, reason] : group->dropped()) {
    EXPECT_FALSE(reason.empty()) << PerfEventName(id);
  }
  ASSERT_TRUE(group->Start().ok());
  volatile uint64_t sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + static_cast<uint64_t>(i);
  ASSERT_TRUE(group->Stop().ok());
  auto reading = group->Read();
  ASSERT_TRUE(reading.ok()) << reading.status();
  ASSERT_EQ(reading->events.size(), group->events().size());
  const PerfEventReading* ins = reading->Find(PerfEventId::kInstructions);
  if (ins != nullptr) {
    EXPECT_GT(ins->value, 100000u);
  }
  const PerfEventReading* cyc = reading->Find(PerfEventId::kCycles);
  ASSERT_NE(cyc, nullptr);  // cycles leads DefaultEvents()
  EXPECT_GT(cyc->value, 0u);
}

TEST(PerfCounterGroupTest, AvailabilityProbeConsistent) {
  const Status status = PerfCountersStatus();
  constexpr PerfEventId kProbe[] = {PerfEventId::kCycles};
  auto group = PerfCounterGroup::Create(kProbe);
  EXPECT_EQ(status.ok(), group.ok());
  if (!status.ok()) {
    // The degradation reason names the syscall and the paranoid knob.
    EXPECT_NE(status.message().find("perf_event"), std::string::npos);
  }
}

TEST(PerfCounterGroupTest, MoveTransfersOwnership) {
  auto group = PerfCounterGroup::Create();
  if (!group.ok()) GTEST_SKIP() << "perf counters unavailable";
  PerfCounterGroup moved = std::move(group).value();
  EXPECT_TRUE(moved.Start().ok());
  EXPECT_TRUE(moved.Stop().ok());
  EXPECT_TRUE(moved.Read().ok());
}

TEST(PerfSamplerTest, LatchesPhaseDeltasWhenAvailable) {
  auto sampler = PerfSampler::Create();
  if (!sampler.ok()) {
    GTEST_SKIP() << "perf counters unavailable: " << sampler.status();
  }
  (*sampler)->OnPhaseBegin();
  volatile uint64_t sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + static_cast<uint64_t>(i);
  PhaseSampleDeltas deltas;
  (*sampler)->OnPhaseEnd("mine", &deltas);
  ASSERT_FALSE(deltas.counters.empty());
  const size_t opened =
      PerfCounterGroup::DefaultEvents().size() - (*sampler)->dropped().size();
  EXPECT_EQ(deltas.counters.size(), opened);
  bool saw_cycles = false;
  for (const auto& [name, value] : deltas.counters) {
    if (name == "cycles") {
      saw_cycles = true;
      EXPECT_GT(value, 0u);
    }
  }
  EXPECT_TRUE(saw_cycles);
}

}  // namespace
}  // namespace fpm
