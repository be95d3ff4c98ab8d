// Microbenchmarks of the individual pattern building blocks
// (google-benchmark), each timing the primitive a kernel calls:
// popcount strategies (P8 and its LUT baseline), 0-escaped intersection
// (§4.2, as Eclat's Intersect windows it), aggregated vs pointer-chased
// lists (P3), jump-pointer chasing (P5), and AoS-vs-compacted counters
// (P4, as LCM's MineLevel counts). P7.1 has no row here: LCM runs its
// two-distance schedule inline in ProjectItem, and Figure 8's LCM Pref
// column (bench_fig8_lcm) switches exactly that schedule.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "fpm/bitvec/bitvector.h"
#include "fpm/bitvec/popcount.h"
#include "fpm/bitvec/tidlist.h"
#include "fpm/common/arena.h"
#include "fpm/common/rng.h"
#include "fpm/mem/aggregation.h"
#include "fpm/mem/prefetch_pointers.h"

namespace {

using namespace fpm;

// ------------------------- P8: popcount strategies -------------------

void BM_CountOnes(benchmark::State& state) {
  const auto strategy = static_cast<PopcountStrategy>(state.range(0));
  const size_t words = static_cast<size_t>(state.range(1));
  if (!PopcountStrategyAvailable(strategy)) {
    state.SkipWithError("strategy unavailable");
    return;
  }
  Rng rng(1);
  std::vector<uint64_t> data(words);
  for (auto& w : data) w = rng.NextU64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountOnes(data.data(), words, strategy));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * words *
                          8);
  state.SetLabel(PopcountStrategyName(strategy));
}
BENCHMARK(BM_CountOnes)
    ->ArgsProduct({{static_cast<int>(PopcountStrategy::kLut16),
                    static_cast<int>(PopcountStrategy::kSwar),
                    static_cast<int>(PopcountStrategy::kAvx2)},
                   {512, 16384}});

void BM_AndCount(benchmark::State& state) {
  const auto strategy = static_cast<PopcountStrategy>(state.range(0));
  const size_t words = static_cast<size_t>(state.range(1));
  if (!PopcountStrategyAvailable(strategy)) {
    state.SkipWithError("strategy unavailable");
    return;
  }
  Rng rng(2);
  std::vector<uint64_t> a(words), b(words), out(words);
  for (auto& w : a) w = rng.NextU64();
  for (auto& w : b) w = rng.NextU64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AndCount(a.data(), b.data(), out.data(), words, strategy));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * words *
                          16);
  state.SetLabel(PopcountStrategyName(strategy));
}
BENCHMARK(BM_AndCount)
    ->ArgsProduct({{static_cast<int>(PopcountStrategy::kLut16),
                    static_cast<int>(PopcountStrategy::kSwar),
                    static_cast<int>(PopcountStrategy::kAvx2)},
                   {512, 16384}});

// ------------------------- 0-escaping (P1-enabled) --------------------

// Vectors whose 1s occupy only `range_pct`% of the words: 0-escaping
// should cut work proportionally. Each iteration is Eclat's Intersect
// without the child's copy: the operands' 1-ranges windowed by
// IntersectRanges, then AndCount over the window, with the popcount
// strategy Mine() gives Eclat when P8 is on.
void BM_ZeroEscapedIntersect(benchmark::State& state) {
  const bool escape = state.range(0) != 0;
  const uint32_t range_pct = static_cast<uint32_t>(state.range(1));
  constexpr size_t kWords = 8192;
  BitVector a(kWords * 64), b(kWords * 64);
  std::vector<uint64_t> out(kWords);
  Rng rng(3);
  const size_t ones_words = kWords * range_pct / 100;
  const size_t start = (kWords - ones_words) / 2;
  for (size_t i = 0; i < ones_words * 16; ++i) {
    a.Set((start * 64) + rng.NextBounded(ones_words * 64));
    b.Set((start * 64) + rng.NextBounded(ones_words * 64));
  }
  const WordRange ra = escape ? a.ComputeOneRange() : a.FullRange();
  const WordRange rb = escape ? b.ComputeOneRange() : b.FullRange();
  for (auto _ : state) {
    const WordRange window = IntersectRanges(ra, rb);
    benchmark::DoNotOptimize(AndCount(a.words() + window.begin,
                                      b.words() + window.begin, out.data(),
                                      window.size(), PopcountStrategy::kAuto));
    benchmark::ClobberMemory();
  }
  state.SetLabel((escape ? "escaped" : "full") + std::string("/range=") +
                 std::to_string(range_pct) + "%");
}
BENCHMARK(BM_ZeroEscapedIntersect)
    ->ArgsProduct({{0, 1}, {5, 25, 100}});

// --------------------- P2: sparse representations --------------------

// Bit-vector AND vs tid-list merge at varying density, one
// intersection in isolation. Eclat's layout constant
// (kEclatTidListFillInverse) comes from whole-kernel runs instead
// (EXPERIMENTS.md §5): a run also builds, allocates children and
// recurses, and there tid lists win only below a fill of about 1/528.
void BM_VerticalIntersect(benchmark::State& state) {
  const bool use_tidlist = state.range(0) != 0;
  const uint32_t per_mille = static_cast<uint32_t>(state.range(1));
  constexpr uint32_t kRows = 1 << 20;
  Rng rng(9);
  std::vector<Tid> list_a, list_b;
  BitVector vec_a(kRows), vec_b(kRows);
  for (Tid t = 0; t < kRows; ++t) {
    if (rng.NextBounded(1000) < per_mille) {
      list_a.push_back(t);
      vec_a.Set(t);
    }
    if (rng.NextBounded(1000) < per_mille) {
      list_b.push_back(t);
      vec_b.Set(t);
    }
  }
  const std::vector<Support> weights(kRows, 1);
  if (use_tidlist) {
    std::vector<Tid> out(std::min(list_a.size(), list_b.size()) + 1);
    for (auto _ : state) {
      Support support = 0;
      benchmark::DoNotOptimize(IntersectTidLists(
          list_a, list_b, weights.data(), out.data(), &support));
      benchmark::DoNotOptimize(support);
    }
  } else {
    std::vector<uint64_t> out(vec_a.num_words());
    for (auto _ : state) {
      benchmark::DoNotOptimize(AndCount(vec_a.words(), vec_b.words(),
                                        out.data(), vec_a.num_words(),
                                        PopcountStrategy::kAuto));
    }
  }
  state.SetLabel((use_tidlist ? "tidlist" : "bitvector+simd") +
                 std::string("/fill=") + std::to_string(per_mille) +
                 "/1000");
}
BENCHMARK(BM_VerticalIntersect)
    ->ArgsProduct({{0, 1}, {2, 30, 300}});

// ------------------------- P3: aggregation ---------------------------

constexpr size_t kListElements = 1 << 20;

void BM_LinkedListTraversal(benchmark::State& state) {
  Arena arena;
  LinkedList<uint64_t> list(&arena);
  for (size_t i = 0; i < kListElements; ++i) list.PushBack(i);
  for (auto _ : state) {
    uint64_t sum = 0;
    list.ForEach([&](uint64_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kListElements);
}
BENCHMARK(BM_LinkedListTraversal);

void BM_AggregatedListTraversal(benchmark::State& state) {
  const uint32_t capacity = static_cast<uint32_t>(state.range(0));
  Arena arena;
  AggregatedList<uint64_t> list(&arena, capacity);
  for (size_t i = 0; i < kListElements; ++i) list.PushBack(i);
  for (auto _ : state) {
    uint64_t sum = 0;
    list.ForEach([&](uint64_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kListElements);
}
BENCHMARK(BM_AggregatedListTraversal)->Arg(2)->Arg(6)->Arg(14)->Arg(62);

// ------------------------- P5: jump pointers -------------------------

void BM_ChainWalk(benchmark::State& state) {
  const bool jump_prefetch = state.range(0) != 0;
  // One long chain scattered through memory (node-link list analogue).
  constexpr uint32_t kNodes = 1 << 20;
  std::vector<uint32_t> next(kNodes);
  std::vector<uint64_t> value(kNodes);
  std::vector<uint32_t> order(kNodes);
  for (uint32_t i = 0; i < kNodes; ++i) order[i] = i;
  Rng rng(5);
  for (uint32_t i = kNodes; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  for (uint32_t i = 0; i + 1 < kNodes; ++i) next[order[i]] = order[i + 1];
  next[order[kNodes - 1]] = kInvalidIndex;
  for (uint32_t i = 0; i < kNodes; ++i) value[i] = i;
  const std::vector<uint32_t> heads = {order[0]};
  const std::vector<uint32_t> jump = BuildJumpPointers(heads, next, 8);

  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint32_t n = order[0]; n != kInvalidIndex; n = next[n]) {
      if (jump_prefetch && jump[n] != kInvalidIndex) {
        Prefetch(&value[jump[n]]);
        Prefetch(&next[jump[n]]);
      }
      sum += value[n];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kNodes);
  state.SetLabel(jump_prefetch ? "jump-prefetch(P5)" : "plain");
}
BENCHMARK(BM_ChainWalk)->Arg(0)->Arg(1);

// ------------------------- P4: counter compaction --------------------

// LCM's MineLevel counting loop against AoS column headers (counter
// embedded in a 32-byte struct, like its OccHeader) vs the dense
// counter array it counts into with P4 on.
struct AosHeader {
  uint32_t count;
  uint32_t pad[7];
};

void BM_CountersAos(benchmark::State& state) {
  constexpr uint32_t kItems = 1 << 16;
  constexpr size_t kTouches = 1 << 22;
  std::vector<AosHeader> headers(kItems);
  std::vector<uint32_t> stream(kTouches);
  Rng rng(6);
  for (auto& s : stream) {
    s = static_cast<uint32_t>(rng.NextBounded(kItems));
  }
  for (auto _ : state) {
    for (uint32_t idx : stream) headers[idx].count += 1;
    benchmark::DoNotOptimize(headers.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kTouches);
}
BENCHMARK(BM_CountersAos);

void BM_CountersCompacted(benchmark::State& state) {
  constexpr uint32_t kItems = 1 << 16;
  constexpr size_t kTouches = 1 << 22;
  std::vector<uint32_t> counters(kItems, 0);
  std::vector<uint32_t> stream(kTouches);
  Rng rng(6);
  for (auto& s : stream) {
    s = static_cast<uint32_t>(rng.NextBounded(kItems));
  }
  for (auto _ : state) {
    for (uint32_t idx : stream) counters[idx] += 1;
    benchmark::DoNotOptimize(counters.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kTouches);
}
BENCHMARK(BM_CountersCompacted);

}  // namespace

BENCHMARK_MAIN();
