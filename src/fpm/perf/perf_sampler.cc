#include "fpm/perf/perf_sampler.h"

#include <atomic>
#include <optional>

namespace fpm {
namespace {

std::atomic<uint64_t> g_next_sampler_id{1};

struct TlsStateCache {
  uint64_t sampler_id = 0;
  void* state = nullptr;
};
thread_local TlsStateCache tls_state_cache;

uint64_t RatioMilli(uint64_t numerator, uint64_t denominator,
                    uint64_t per = 1000) {
  if (denominator == 0) return 0;
  const long double r = static_cast<long double>(numerator) *
                        static_cast<long double>(per) /
                        static_cast<long double>(denominator);
  return static_cast<uint64_t>(r + 0.5L);
}

const uint64_t* FindCounter(
    const std::vector<std::pair<std::string, uint64_t>>& counters,
    std::string_view name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return &value;
  }
  return nullptr;
}

}  // namespace

void AppendDerivedPerfGauges(
    const std::vector<std::pair<std::string, uint64_t>>& counters,
    std::vector<std::pair<std::string, uint64_t>>* gauges) {
  const uint64_t* instructions = FindCounter(counters, "instructions");
  if (instructions == nullptr || *instructions == 0) return;
  if (const uint64_t* cycles = FindCounter(counters, "cycles")) {
    gauges->emplace_back("cpi_milli", RatioMilli(*cycles, *instructions));
  }
  if (const uint64_t* misses = FindCounter(counters, "cache_misses")) {
    // MPKI in milli units: misses * 1e6 / instructions.
    gauges->emplace_back("cache_mpki_milli",
                         RatioMilli(*misses, *instructions, 1000000));
  }
  if (const uint64_t* misses = FindCounter(counters, "dtlb_read_misses")) {
    gauges->emplace_back("dtlb_mpki_milli",
                         RatioMilli(*misses, *instructions, 1000000));
  }
}

/// One thread's counter group and its stack of phase-begin readings
/// (phases nest LIFO per thread). `group` is empty when the open failed;
/// the reason is kept for diagnostics.
struct PerfSampler::ThreadState {
  uint32_t thread_index = 0;  // informational
  std::optional<PerfCounterGroup> group;
  std::string open_error;
  std::vector<PerfGroupReading> begin_stack;
};

PerfSampler::PerfSampler(std::vector<PerfEventId> requested)
    : id_(g_next_sampler_id.fetch_add(1, std::memory_order_relaxed)),
      requested_(std::move(requested)) {}

PerfSampler::~PerfSampler() = default;

Result<std::unique_ptr<PerfSampler>> PerfSampler::Create(
    std::span<const PerfEventId> requested) {
  auto sampler = std::unique_ptr<PerfSampler>(new PerfSampler(
      std::vector<PerfEventId>(requested.begin(), requested.end())));
  // Open the creating thread's group now: it doubles as the viability
  // probe, so an all-refused kernel fails here with the paranoid hint.
  ThreadState* state = sampler->StateForThisThread();
  if (!state->group.has_value()) {
    return Status::IOError(state->open_error);
  }
  return sampler;
}

PerfSampler::ThreadState* PerfSampler::StateForThisThread() {
  if (tls_state_cache.sampler_id == id_) {
    return static_cast<ThreadState*>(tls_state_cache.state);
  }
  auto state = std::make_unique<ThreadState>();
  Result<PerfCounterGroup> group = PerfCounterGroup::Create(requested_);
  if (group.ok()) {
    state->group = std::move(group).value();
    // Started once and left running; phase deltas are differences of
    // in-flight reads, so no per-phase reset is needed (and nested
    // phases stay correct).
    const Status started = state->group->Start();
    if (!started.ok()) {
      state->open_error = started.message();
      state->group.reset();
    }
  } else {
    state->open_error = group.status().message();
  }
  ThreadState* raw = state.get();
  {
    std::lock_guard<std::mutex> lk(mu_);
    states_.push_back(std::move(state));
  }
  tls_state_cache = {id_, raw};
  return raw;
}

const std::vector<std::pair<PerfEventId, std::string>>& PerfSampler::dropped()
    const {
  static const std::vector<std::pair<PerfEventId, std::string>> kEmpty;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& state : states_) {
    if (state->group.has_value()) return state->group->dropped();
  }
  return kEmpty;
}

void PerfSampler::OnPhaseBegin() {
  ThreadState* state = StateForThisThread();
  if (!state->group.has_value()) return;
  Result<PerfGroupReading> reading = state->group->Read();
  // A failed read still pushes (an empty marker) so End's pop stays
  // paired with this Begin.
  state->begin_stack.push_back(reading.ok() ? std::move(reading).value()
                                            : PerfGroupReading{});
}

void PerfSampler::OnPhaseEnd(std::string_view /*phase*/,
                             PhaseSampleDeltas* out) {
  ThreadState* state = StateForThisThread();
  if (!state->group.has_value() || state->begin_stack.empty()) return;
  const PerfGroupReading begin = std::move(state->begin_stack.back());
  state->begin_stack.pop_back();
  if (begin.events.empty()) return;  // the paired Begin's read failed
  Result<PerfGroupReading> end = state->group->Read();
  if (!end.ok() || end->events.size() != begin.events.size()) return;
  const size_t first = out->counters.size();
  for (size_t i = 0; i < begin.events.size(); ++i) {
    const uint64_t b = begin.events[i].value;
    const uint64_t e = end->events[i].value;
    out->counters.emplace_back(PerfEventName(begin.events[i].id),
                               e > b ? e - b : 0);
  }
  // Derive CPI/MPKI from this phase's deltas only (not anything the
  // caller already had in `out`).
  const std::vector<std::pair<std::string, uint64_t>> phase_counters(
      out->counters.begin() + first, out->counters.end());
  AppendDerivedPerfGauges(phase_counters, &out->gauges);
}

}  // namespace fpm
