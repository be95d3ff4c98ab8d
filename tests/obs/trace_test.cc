#include "fpm/obs/trace.h"

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/obs/metrics.h"

namespace fpm {
namespace {

TraceSpan MakeSpan(std::string name, uint32_t tid, uint32_t depth,
                   uint64_t start_ns, uint64_t dur_ns,
                   std::vector<std::pair<std::string, uint64_t>> args = {}) {
  TraceSpan s;
  s.name = std::move(name);
  s.thread_index = tid;
  s.depth = depth;
  s.start_ns = start_ns;
  s.duration_ns = dur_ns;
  s.args = std::move(args);
  return s;
}

TEST(TracerTest, DisabledScopedSpanRecordsNothing) {
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  {
    ScopedSpan span(tracer, "noop");
    EXPECT_FALSE(span.active());
    span.AddArg("ignored", 1);
  }
  EXPECT_TRUE(tracer.CollectSpans().empty());
}

TEST(TracerTest, ScopedSpansNestByDepth) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan outer(tracer, "outer");
    EXPECT_TRUE(outer.active());
    {
      ScopedSpan inner(tracer, "inner");
      inner.AddArg("k", 7);
    }
  }
  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by (start_ns, depth): outer begins first at depth 0.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  ASSERT_EQ(spans[1].args.size(), 1u);
  EXPECT_EQ(spans[1].args[0].first, "k");
  EXPECT_EQ(spans[1].args[0].second, 7u);
  // The child interval lies within the parent's.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
}

TEST(TracerTest, EndIsIdempotent) {
  Tracer tracer;
  tracer.set_enabled(true);
  ScopedSpan span(tracer, "once");
  span.End();
  span.End();  // second End() and the destructor must not re-record
  EXPECT_EQ(tracer.CollectSpans().size(), 1u);
}

TEST(TracerTest, PhaseSpanTimesEvenWhenDisabled) {
  Tracer tracer;
  PhaseSpan span(tracer, "phase");
  const double secs = span.End();
  EXPECT_GE(secs, 0.0);
  EXPECT_EQ(span.End(), secs);  // idempotent, same value back
  EXPECT_TRUE(tracer.CollectSpans().empty());
}

TEST(TracerTest, PhaseSpanRecordsWhenEnabled) {
  Tracer tracer;
  tracer.set_enabled(true);
  PhaseSpan span(tracer, "phase");
  span.End();
  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "phase");
}

TEST(TracerTest, RingOverwritesOldestAndCountsDropped) {
  // Overflow is counted in fpm.obs.spans_dropped, so an operator sees
  // lost spans without comparing ring contents.
  MetricsRegistry& registry = MetricsRegistry::Default();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const uint64_t dropped_before =
      registry.Snapshot().counter("fpm.obs.spans_dropped");

  Tracer tracer(/*ring_capacity=*/4);
  for (uint64_t i = 0; i < 6; ++i) {
    tracer.Record(MakeSpan(std::string("s").append(std::to_string(i)), 0, 0,
                           /*start_ns=*/i, 1));
  }
  EXPECT_EQ(registry.Snapshot().counter("fpm.obs.spans_dropped"),
            dropped_before + 2);
  registry.set_enabled(was_enabled);

  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest two (s0, s1) were evicted; survivors come out oldest-first.
  EXPECT_EQ(spans[0].name, "s2");
  EXPECT_EQ(spans[3].name, "s5");
}

TEST(TracerTest, SpanContextScopeTagsSpansWithTheQueryId) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    SpanContextScope context(42);
    EXPECT_EQ(Tracer::ThreadQueryId(), 42u);
    {
      // Nested scopes shadow and restore the outer id.
      SpanContextScope inner(43);
      ScopedSpan span(tracer, "inner");
    }
    ScopedSpan span(tracer, "outer");
  }
  // Outside any scope, spans carry no query_id arg.
  { ScopedSpan span(tracer, "untagged"); }
  EXPECT_EQ(Tracer::ThreadQueryId(), 0u);

  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 3u);
  const auto query_id_arg =
      [](const TraceSpan& span) -> const uint64_t* {
    for (const auto& [key, value] : span.args) {
      if (key == "query_id") return &value;
    }
    return nullptr;
  };
  for (const TraceSpan& span : spans) {
    const uint64_t* id = query_id_arg(span);
    if (span.name == "inner") {
      ASSERT_NE(id, nullptr);
      EXPECT_EQ(*id, 43u);
    } else if (span.name == "outer") {
      ASSERT_NE(id, nullptr);
      EXPECT_EQ(*id, 42u);
    } else {
      EXPECT_EQ(id, nullptr) << span.name;
    }
  }
}

TEST(TracerTest, ClearDiscardsSpansButKeepsEpoch) {
  Tracer tracer;
  tracer.set_enabled(true);
  const uint64_t before = tracer.NowNs();
  tracer.Record(MakeSpan("a", 0, 0, 1, 1));
  tracer.Clear();
  EXPECT_TRUE(tracer.CollectSpans().empty());
  EXPECT_GE(tracer.NowNs(), before);  // same time base, still advancing
}

TEST(TracerTest, CollectMergesThreadsSortedByStart) {
  Tracer tracer;
  std::thread other(
      [&] { tracer.Record(MakeSpan("from_other", 1, 0, /*start_ns=*/5, 1)); });
  other.join();
  tracer.Record(MakeSpan("from_main", 0, 0, /*start_ns=*/10, 1));
  tracer.Record(MakeSpan("early_main", 0, 0, /*start_ns=*/2, 1));
  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "early_main");
  EXPECT_EQ(spans[1].name, "from_other");
  EXPECT_EQ(spans[2].name, "from_main");
}

TEST(TraceExportTest, ChromeTracingGolden) {
  const std::vector<TraceSpan> spans = {
      MakeSpan("lcm", 0, 0, 1500, 2000500, {{"itemsets", 9}}),
      MakeSpan("prepare", 0, 1, 1750, 250),
      MakeSpan("he said \"hi\"", 2, 0, 1, 2),
  };
  std::ostringstream os;
  WriteChromeTracing(spans, os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\":["
            "{\"name\":\"lcm\",\"cat\":\"fpm\",\"ph\":\"X\",\"ts\":1.500,"
            "\"dur\":2000.500,\"pid\":1,\"tid\":0,\"args\":{\"itemsets\":9}},"
            "{\"name\":\"prepare\",\"cat\":\"fpm\",\"ph\":\"X\",\"ts\":1.750,"
            "\"dur\":0.250,\"pid\":1,\"tid\":0},"
            "{\"name\":\"he said \\\"hi\\\"\",\"cat\":\"fpm\",\"ph\":\"X\","
            "\"ts\":0.001,\"dur\":0.002,\"pid\":1,\"tid\":2}"
            "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(TraceExportTest, ChromeTracingEmptyIsValidDocument) {
  std::ostringstream os;
  WriteChromeTracing({}, os);
  EXPECT_EQ(os.str(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
}

}  // namespace
}  // namespace fpm
