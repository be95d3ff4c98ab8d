// PhaseSampler implementation backed by PerfCounterGroup: install one on
// the tracer (Tracer::set_phase_sampler) and every PhaseSpan — the
// kernels' prepare/build/mine phases and the parallel driver's class spans
// — latches hardware-counter deltas plus derived gauges (CPI, cache-MPKI
// and dTLB-MPKI as milli-unit integers).
//
// Counters are per thread: each thread driving a phase lazily opens its
// own PerfCounterGroup, started once and left running; a phase delta is
// the difference of two in-flight reads (multiplex-scaled), so nested
// phases each see exactly their own window. A thread whose open fails
// (e.g. a worker hitting an fd limit) records the reason once and stays
// silent; the whole sampler fails to Create() only when the calling
// thread cannot open anything — the caller then reports the degradation
// reason and runs unsampled.

#ifndef FPM_PERF_PERF_SAMPLER_H_
#define FPM_PERF_PERF_SAMPLER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fpm/common/status.h"
#include "fpm/obs/phase_sampler.h"
#include "fpm/perf/perf_counters.h"

namespace fpm {

class PerfSampler : public PhaseSampler {
 public:
  /// Opens the calling thread's counter group as a viability probe (and
  /// as that thread's group). Fails — with the perf_event_paranoid hint
  /// — only when no requested event opens at all.
  static Result<std::unique_ptr<PerfSampler>> Create(
      std::span<const PerfEventId> requested =
          PerfCounterGroup::DefaultEvents());

  ~PerfSampler() override;

  /// Requested events the creating thread's group dropped, with reasons.
  const std::vector<std::pair<PerfEventId, std::string>>& dropped() const;

  // PhaseSampler:
  void OnPhaseBegin() override;
  void OnPhaseEnd(std::string_view phase, PhaseSampleDeltas* out) override;

 private:
  struct ThreadState;

  explicit PerfSampler(std::vector<PerfEventId> requested);
  ThreadState* StateForThisThread();

  const uint64_t id_;  // process-unique, keys the thread-local cache
  const std::vector<PerfEventId> requested_;

  mutable std::mutex mu_;  // guards states_ (the list, not the contents)
  std::vector<std::unique_ptr<ThreadState>> states_;
};

/// Appends the derived gauges the paper's analysis uses — "cpi_milli"
/// (1000 x cycles/instructions), "cache_mpki_milli" and
/// "dtlb_mpki_milli" (1000 x misses-per-kilo-instruction) — for every
/// ratio whose numerator and denominator are both present in `deltas`.
/// Exposed for tests and for formatting stored counter tables.
void AppendDerivedPerfGauges(
    const std::vector<std::pair<std::string, uint64_t>>& counters,
    std::vector<std::pair<std::string, uint64_t>>* gauges);

}  // namespace fpm

#endif  // FPM_PERF_PERF_SAMPLER_H_
