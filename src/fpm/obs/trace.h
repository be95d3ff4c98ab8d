// Lightweight phase-span tracer.
//
// A span is a named interval on one thread (begin/end, with the nesting
// depth at begin and optional numeric args). Completed spans land in a
// per-thread ring buffer — the newest spans win when a ring fills, and
// the registry counter fpm.obs.spans_dropped counts the ones overwritten
// — and are merged on export in the Chrome trace-event format ("ph":"X"
// complete events), loadable straight into chrome://tracing or
// https://ui.perfetto.dev.
//
// Like the metrics registry, the default tracer starts disabled: a
// ScopedSpan on a disabled tracer neither reads the clock nor allocates
// (one relaxed load + branch). mine_cli enables it for --trace-out.
//
// PhaseSpan is the bridge to MineStats: kernels must report phase wall
// times whether or not tracing is on, so PhaseSpan always times and
// additionally records a trace span when the tracer is enabled. Kernels
// close a phase with MineStats::FinishPhase(phase, span), which stores
// the elapsed seconds of End() plus any sampler counter deltas.
//
// When a PhaseSampler (fpm/obs/phase_sampler.h) is installed on the
// tracer, every PhaseSpan additionally latches the sampler's deltas —
// e.g. hardware-counter readings — over the phase: they are exposed via
// counter_deltas() (kernels merge them into MineStats), attached to the
// trace span as args, and recorded into the default MetricsRegistry as
// "fpm.phase.<phase>.<counter>" counters and gauges.

#ifndef FPM_OBS_TRACE_H_
#define FPM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fpm/obs/phase_sampler.h"

namespace fpm {

class Counter;

/// One completed span. Timestamps are nanoseconds since the tracer's
/// construction (Clear() keeps the epoch, so successive exports share a
/// time base).
struct TraceSpan {
  std::string name;
  uint32_t thread_index = 0;  ///< ObsThreadIndex() of the emitting thread
  uint32_t depth = 0;         ///< nesting level at begin (0 = top)
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  std::vector<std::pair<std::string, uint64_t>> args;
};

/// Collects spans into per-thread ring buffers.
///
/// Record()/ScopedSpan are safe from any thread; CollectSpans()/Clear()
/// may run concurrently with writers (each ring is briefly locked — the
/// lock is per-thread and uncontended on the hot path).
class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 16;

  /// The process-wide tracer the library's instrumentation records to.
  /// Starts disabled.
  static Tracer& Default();

  /// `ring_capacity` bounds the spans retained *per thread*; when a ring
  /// is full the oldest span is overwritten (and counted in
  /// fpm.obs.spans_dropped).
  explicit Tracer(size_t ring_capacity = kDefaultRingCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Installs (or, with nullptr, removes) the sampler new PhaseSpans
  /// consult. The sampler must outlive every span begun while it was
  /// installed; spans in flight keep driving the sampler they started
  /// with. Independent of enabled(): sampling works without tracing.
  void set_phase_sampler(PhaseSampler* sampler) {
    phase_sampler_.store(sampler, std::memory_order_release);
  }
  PhaseSampler* phase_sampler() const {
    return phase_sampler_.load(std::memory_order_acquire);
  }

  /// Request-scoped span context. A nonzero query id set on a thread is
  /// attached as a "query_id" arg to every ScopedSpan/PhaseSpan the
  /// thread records (all tracers — the context is per thread, like the
  /// nesting depth), so kernel and task spans can be joined back to the
  /// service request that caused them. Prefer SpanContextScope over
  /// calling these directly.
  static void SetThreadQueryId(uint64_t query_id);
  static uint64_t ThreadQueryId();

  /// Nanoseconds since construction (the span time base).
  uint64_t NowNs() const;

  /// Appends a completed span to the calling thread's ring. Records
  /// unconditionally — the enabled() gate lives in ScopedSpan/PhaseSpan
  /// so tests can inject handcrafted spans.
  void Record(TraceSpan span);

  /// Every retained span, oldest-first per ring, merged and sorted by
  /// (start_ns, depth) so parents precede their children.
  std::vector<TraceSpan> CollectSpans() const;

  /// Discards all retained spans (the epoch is kept).
  void Clear();

 private:
  friend class ScopedSpan;
  friend class PhaseSpan;

  struct ThreadRing;
  ThreadRing* RingForThisThread();

  const uint64_t id_;  // process-unique, for the thread-local ring cache
  const size_t ring_capacity_;
  Counter* spans_dropped_counter_;  // fpm.obs.spans_dropped
  std::atomic<bool> enabled_{false};
  std::atomic<PhaseSampler*> phase_sampler_{nullptr};
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;  // guards rings_ (the list, not the contents)
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

/// RAII query-id span context: installs `query_id` as the calling
/// thread's context for its lifetime and restores the previous value on
/// destruction (nesting is well-formed). Spawning code that ships work
/// to another thread must capture Tracer::ThreadQueryId() at submit time
/// and open a new scope inside the task body.
class SpanContextScope {
 public:
  explicit SpanContextScope(uint64_t query_id)
      : previous_(Tracer::ThreadQueryId()) {
    Tracer::SetThreadQueryId(query_id);
  }
  ~SpanContextScope() { Tracer::SetThreadQueryId(previous_); }

  SpanContextScope(const SpanContextScope&) = delete;
  SpanContextScope& operator=(const SpanContextScope&) = delete;

 private:
  uint64_t previous_;
};

/// RAII span: begins at construction, ends (and records) at End() or
/// destruction. On a disabled tracer the whole object is inert.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name);
  /// Spans on the default tracer.
  explicit ScopedSpan(std::string_view name)
      : ScopedSpan(Tracer::Default(), name) {}
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when the tracer was enabled at construction (args will be
  /// retained, End() will record).
  bool active() const { return tracer_ != nullptr; }

  /// Attaches a numeric arg (no-op when inactive).
  void AddArg(std::string_view key, uint64_t value);

  /// Ends and records the span; later calls (and the destructor) no-op.
  void End();

 private:
  Tracer* tracer_ = nullptr;  // null = inactive
  TraceSpan span_;
};

/// Always-on phase stopwatch that doubles as a trace span when the
/// tracer is enabled. End() returns the elapsed wall seconds (kernels
/// store it into MineStats); the destructor ends implicitly for early
/// returns. When the tracer has a PhaseSampler, the span drives it and
/// latches its deltas (see counter_deltas()).
class PhaseSpan {
 public:
  PhaseSpan(Tracer& tracer, std::string_view name);
  explicit PhaseSpan(std::string_view name)
      : PhaseSpan(Tracer::Default(), name) {}
  ~PhaseSpan() { End(); }

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  /// Attaches a numeric arg to the trace span (no-op unless tracing).
  void AddArg(std::string_view key, uint64_t value);

  /// Stops the stopwatch, latches the sampler deltas, records the trace
  /// span when tracing, and returns the elapsed seconds. Idempotent.
  double End();

  /// Sampler counter deltas over the phase; empty before End() and when
  /// no sampler was installed. Valid until the span is destroyed (take
  /// ownership with TakeCounterDeltas()).
  const std::vector<std::pair<std::string, uint64_t>>& counter_deltas()
      const {
    return deltas_.counters;
  }
  std::vector<std::pair<std::string, uint64_t>> TakeCounterDeltas() {
    return std::move(deltas_.counters);
  }

 private:
  Tracer* tracer_ = nullptr;  // null once ended; tracing gated separately
  bool tracing_ = false;
  PhaseSampler* sampler_ = nullptr;  // latched at construction
  double elapsed_seconds_ = 0.0;
  std::chrono::steady_clock::time_point start_;
  TraceSpan span_;
  PhaseSampleDeltas deltas_;
};

/// Writes the Chrome trace-event JSON document ("X" complete events,
/// microsecond timestamps) for chrome://tracing / Perfetto.
void WriteChromeTracing(std::span<const TraceSpan> spans, std::ostream& os);

}  // namespace fpm

#endif  // FPM_OBS_TRACE_H_
