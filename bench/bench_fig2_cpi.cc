// Reproduces Figure 2 — CPI of the most time-consuming functions of the
// three kernels (LCM CalcFreq/RmDupTrans, Eclat intersection+counting,
// FP-Growth insert/traverse).
//
// When the kernel exposes hardware counters (perf_event_open), each hot
// function runs under a cycles+instructions group and its CPI is
// reported, exactly like the paper's PMC measurements. Many VMs and
// containers expose no PMU; the bench then degrades to wall-time
// throughput plus *simulated* L1/L2 miss rates on the paper's M1 cache
// geometry — which still reproduces Figure 2's message: LCM and
// FP-Growth traversals are memory bound, Eclat is computation bound.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "fpm/algo/fpgrowth/fptree.h"
#include "fpm/bitvec/popcount.h"
#include "fpm/bitvec/vertical.h"
#include "fpm/common/arena.h"
#include "fpm/common/rng.h"
#include "fpm/common/timer.h"
#include "fpm/layout/item_order.h"
#include "fpm/mem/aggregation.h"
#include "fpm/perf/perf_counters.h"
#include "fpm/perf/report.h"
#include "fpm/simcache/db_trace.h"

namespace {

using namespace fpm;

// One hot-function kernel: `run` does the work and returns the number of
// elements processed; `trace` replays its access pattern on a simulated
// hierarchy (for the no-PMU fallback).
struct HotFunction {
  std::string kernel;
  std::string function;
  std::function<uint64_t()> run;
  std::function<MemorySystemStats(MemorySystem*)> trace;
};

// Prevents dead-code elimination of kernel results.
volatile uint64_t g_sink;

// Synthetic pointer-chase trace: `accesses` touches of `object_bytes`
// objects at pseudo-random offsets inside a `region_bytes` region —
// the access pattern of hash-bucket probing and tree-node chasing,
// which the next-line prefetcher cannot help.
MemorySystemStats TraceRandomChase(MemorySystem* mem, uint64_t region_bytes,
                                   uint64_t accesses, uint32_t object_bytes) {
  mem->Reset();
  const uint64_t slots = region_bytes / object_bytes;
  uint64_t state = 12345;
  for (uint64_t i = 0; i < accesses; ++i) {
    const uint64_t slot = SplitMix64(&state) % slots;
    mem->Touch(slot * object_bytes, object_bytes);
  }
  return mem->stats();
}

// Simulated average stall cycles per access under the M1 hierarchy:
// the no-PMU stand-in for CPI (high stalls <=> high CPI).
double StallCyclesPerAccess(const MemorySystemStats& s) {
  if (s.l1.accesses == 0) return 0.0;
  return (14.0 * static_cast<double>(s.l2.accesses) +
          240.0 * static_cast<double>(s.l2.misses)) /
         static_cast<double>(s.l1.accesses);
}

}  // namespace

int main() {
  bench::PrintHeader("bench_fig2_cpi",
                     "Figure 2 - CPI of the most time consuming functions");
  const double scale = BenchScale();
  bench::BenchDataset ds1 = bench::MakeDs1(scale);

  // Shared preprocessed inputs.
  ItemOrder order = ItemOrder::ByDecreasingFrequency(ds1.db);
  Database ranked = RemapItems(ds1.db, order);
  const auto& freq = ranked.item_frequencies();
  size_t num_frequent = 0;
  while (num_frequent < freq.size() && freq[num_frequent] >= ds1.min_support) {
    ++num_frequent;
  }
  VerticalDatabase vdb = VerticalDatabase::FromDatabase(ranked, num_frequent);

  std::vector<HotFunction> functions;

  // --- LCM CalcFreq: occurrence-walk frequency counting. ---------------
  // Per-item column walk over the horizontal database, bumping one
  // counter per incidence (the paper's 54% function).
  functions.push_back(HotFunction{
      "LCM", "CalcFreq (occurrence counting)",
      [&]() -> uint64_t {
        // occ lists: item -> tids.
        std::vector<std::vector<Tid>> occ(ranked.num_items());
        for (Tid t = 0; t < ranked.num_transactions(); ++t) {
          for (Item i : ranked.transaction(t)) occ[i].push_back(t);
        }
        std::vector<uint32_t> counters(ranked.num_items(), 0);
        uint64_t touched = 0;
        for (Item i = 0; i < ranked.num_items(); ++i) {
          for (Tid t : occ[i]) {
            for (Item j : ranked.transaction(t)) {
              ++counters[j];
              ++touched;
            }
          }
        }
        g_sink = counters[0];
        return touched;
      },
      [&](MemorySystem* mem) { return TraceColumnWalk(ranked, mem); }});

  // --- LCM RmDupTrans: bucket-hash duplicate merging. -------------------
  functions.push_back(HotFunction{
      "LCM", "RmDupTrans (duplicate merging)",
      [&]() -> uint64_t {
        Arena arena;
        size_t nbuckets = 16;
        while (nbuckets < ranked.num_transactions()) nbuckets <<= 1;
        std::vector<LinkedList<uint32_t>> buckets(
            nbuckets, LinkedList<uint32_t>(&arena));
        uint64_t probes = 0;
        for (Tid t = 0; t < ranked.num_transactions(); ++t) {
          const size_t h = ItemsetHash{}(ranked.transaction(t));
          LinkedList<uint32_t>& chain = buckets[h & (nbuckets - 1)];
          chain.ForEach([&](uint32_t) { ++probes; });
          chain.PushBack(t);
        }
        g_sink = probes;
        return ranked.num_transactions() + probes;
      },
      [&](MemorySystem* mem) {
        // Bucket heads + arena nodes probed in hash order: random
        // touches over a region sized like the bucket table.
        uint64_t nbuckets = 16;
        while (nbuckets < ranked.num_transactions()) nbuckets <<= 1;
        return TraceRandomChase(mem, nbuckets * 16,
                                ranked.num_transactions() * 2, 16);
      }});

  // --- Eclat: vector AND + frequency counting (98% of runtime). --------
  functions.push_back(HotFunction{
      "Eclat", "intersect+count (bit vectors)",
      [&]() -> uint64_t {
        const size_t words = vdb.words_per_column();
        std::vector<uint64_t> out(words);
        uint64_t total = 0;
        uint64_t ops = 0;
        const size_t n = vdb.num_items();
        for (size_t a = 0; a + 1 < n && ops < 400; a += 7) {
          for (size_t b = a + 1; b < n && ops < 400; b += 13) {
            total += AndCount(vdb.column(a).words(), vdb.column(b).words(),
                              out.data(), words, PopcountStrategy::kLut16);
            ++ops;
          }
        }
        g_sink = total;
        return ops * words;
      },
      [&](MemorySystem* mem) {
        // Streaming over long contiguous vectors: the compute-bound
        // pattern.
        mem->Reset();
        const size_t words = vdb.words_per_column();
        const size_t n = vdb.num_items() < 32 ? vdb.num_items() : 32;
        for (size_t a = 0; a < n; ++a) {
          mem->TouchRange(vdb.column(a).words(), words);
        }
        return mem->stats();
      }});

  // --- FP-Growth: tree insertion and node-link traversal. --------------
  FpTreeConfig tree_config;
  PointerFpTree tree(static_cast<uint32_t>(num_frequent), tree_config);
  functions.push_back(HotFunction{
      "FP-Growth", "insert (tree construction)",
      [&]() -> uint64_t {
        std::vector<Item> filtered;
        uint64_t inserted = 0;
        for (Tid t = 0; t < ranked.num_transactions(); ++t) {
          filtered.clear();
          for (Item i : ranked.transaction(t)) {
            if (i >= num_frequent) break;
            filtered.push_back(i);
          }
          if (!filtered.empty()) {
            tree.AddPath(filtered, ranked.weight(t));
            inserted += filtered.size();
          }
        }
        tree.Finalize();
        g_sink = tree.num_nodes();
        return inserted;
      },
      [&](MemorySystem* mem) {
        // Node chasing over the tree's arena footprint (40-byte nodes,
        // one chase per inserted item).
        const uint64_t region =
            std::max<uint64_t>(tree.num_nodes() * 40, 1 << 16);
        return TraceRandomChase(mem, region, ranked.num_entries(), 40);
      }});

  functions.push_back(HotFunction{
      "FP-Growth", "traverse (node links + paths)",
      [&]() -> uint64_t {
        uint64_t visited = 0;
        for (Item i : tree.items()) {
          tree.ForEachPath(i, [&](std::span<const Item> base, Support) {
            visited += base.size() + 1;
          });
        }
        g_sink = visited;
        return visited;
      },
      [&](MemorySystem* mem) {
        const uint64_t region =
            std::max<uint64_t>(tree.num_nodes() * 40, 1 << 16);
        return TraceRandomChase(mem, region, ranked.num_entries(), 40);
      }});

  // --- Measure. ----------------------------------------------------------
  bench::BenchReport report(
      "fig2_cpi", "Figure 2 - CPI of the most time consuming functions");
  const Status pmu_status = PerfCountersStatus();
  const bool have_pmu = pmu_status.ok();
  if (have_pmu) {
    std::printf("Hardware counters: available (reporting true CPI)\n\n");
  } else {
    std::printf(
        "Hardware counters: unavailable (%s); reporting wall-time "
        "throughput + simulated M1 miss rates — see DESIGN.md "
        "substitution 4\n\n",
        std::string(pmu_status.message()).c_str());
  }

  ReportTable table({"Kernel", "Hot function", "Time", "ns/elem",
                     have_pmu ? "CPI" : "sim stalls/access",
                     have_pmu ? "instructions" : "sim L1 miss%", "verdict"});
  for (HotFunction& fn : functions) {
    double seconds = 0;
    uint64_t elements = 0;
    double cpi = 0;
    uint64_t instructions = 0;
    if (have_pmu) {
      constexpr PerfEventId kCpiPair[] = {PerfEventId::kCycles,
                                          PerfEventId::kInstructions};
      auto group = PerfCounterGroup::Create(kCpiPair);
      FPM_CHECK_OK(group.status());
      FPM_CHECK_OK(group->Start());
      WallTimer timer;
      elements = fn.run();
      seconds = timer.ElapsedSeconds();
      FPM_CHECK_OK(group->Stop());
      auto reading = group->Read();
      FPM_CHECK_OK(reading.status());
      const PerfEventReading* cyc = reading->Find(PerfEventId::kCycles);
      const PerfEventReading* ins = reading->Find(PerfEventId::kInstructions);
      instructions = ins != nullptr ? ins->value : 0;
      cpi = (cyc != nullptr && instructions > 0)
                ? static_cast<double>(cyc->value) /
                      static_cast<double>(instructions)
                : 0.0;
    } else {
      WallTimer timer;
      elements = fn.run();
      seconds = timer.ElapsedSeconds();
    }

    char nspe[32], c1[32], c2[32];
    std::snprintf(nspe, sizeof(nspe), "%.2f",
                  elements == 0 ? 0.0 : seconds * 1e9 / elements);
    std::string verdict;
    bench::BenchRow& row = report.AddRow();
    row.Str("kernel", fn.kernel)
        .Str("function", fn.function)
        .Num("seconds", seconds)
        .Int("elements", elements)
        .Bool("hardware_counters", have_pmu);
    if (have_pmu) {
      std::snprintf(c1, sizeof(c1), "%.2f", cpi);
      std::snprintf(c2, sizeof(c2), "%llu",
                    static_cast<unsigned long long>(instructions));
      verdict = cpi > 1.0 ? "memory bound" : "computation bound";
      row.Num("cpi", cpi).Int("instructions", instructions);
    } else {
      MemorySystem mem(MemorySystemConfig::PentiumD());
      const auto stats = fn.trace(&mem);
      const double stalls = StallCyclesPerAccess(stats);
      std::snprintf(c1, sizeof(c1), "%.1f", stalls);
      std::snprintf(c2, sizeof(c2), "%.1f%%", stats.l1.miss_rate() * 100);
      verdict = stalls > 2.0 ? "memory bound" : "computation bound";
      row.Num("sim_stalls_per_access", stalls)
          .Num("sim_l1_miss_rate", stats.l1.miss_rate());
    }
    row.Str("verdict", verdict);
    table.AddRow({fn.kernel, fn.function, FormatSeconds(seconds), nspe, c1,
                  c2, verdict});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper's Figure 2 message: LCM and FP-Growth hot functions run at\n"
      "high CPI (memory bound); Eclat's intersection kernel runs at low\n"
      "CPI (computation bound). The verdict column must match.\n");
  report.Write();
  return 0;
}
