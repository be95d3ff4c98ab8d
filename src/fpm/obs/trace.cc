#include "fpm/obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "fpm/common/json_writer.h"
#include "fpm/obs/metrics.h"
#include "fpm/obs/thread_index.h"

namespace fpm {
namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

struct TlsRingCache {
  uint64_t tracer_id = 0;
  void* ring = nullptr;
};
thread_local TlsRingCache tls_ring_cache;

// Per-thread nesting level. Global across tracers: in practice one
// tracer is active at a time, and a shared depth is still well-formed
// (spans just nest across tracers too).
thread_local uint32_t tls_span_depth = 0;

// Per-thread request context (see Tracer::SetThreadQueryId). Global
// across tracers for the same reason as the depth.
thread_local uint64_t tls_query_id = 0;

// Appends the thread's query-id context to a span about to be recorded.
void AttachSpanContext(TraceSpan& span) {
  if (tls_query_id != 0) span.args.emplace_back("query_id", tls_query_id);
}

// The span's name and arg keys as JSON strings, through the one escaper.
class Quoter {
 public:
  const std::string& operator()(std::string_view s) {
    quoted_.clear();
    AppendJsonString(&quoted_, s);
    return quoted_;
  }

 private:
  std::string quoted_;
};

}  // namespace

struct Tracer::ThreadRing {
  std::mutex mu;
  std::vector<TraceSpan> slots;
  size_t next = 0;  // insertion cursor once full
  uint32_t thread_index = 0;
};

Tracer::Tracer(size_t ring_capacity)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      ring_capacity_(ring_capacity < 1 ? 1 : ring_capacity),
      spans_dropped_counter_(
          MetricsRegistry::Default().GetCounter("fpm.obs.spans_dropped")),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetThreadQueryId(uint64_t query_id) {
  tls_query_id = query_id;
}

uint64_t Tracer::ThreadQueryId() { return tls_query_id; }

uint64_t Tracer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::ThreadRing* Tracer::RingForThisThread() {
  if (tls_ring_cache.tracer_id == id_) {
    return static_cast<ThreadRing*>(tls_ring_cache.ring);
  }
  const uint32_t thread_index = ObsThreadIndex();
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& ring : rings_) {
    if (ring->thread_index == thread_index) {
      tls_ring_cache = {id_, ring.get()};
      return ring.get();
    }
  }
  rings_.push_back(std::make_unique<ThreadRing>());
  rings_.back()->thread_index = thread_index;
  tls_ring_cache = {id_, rings_.back().get()};
  return rings_.back().get();
}

void Tracer::Record(TraceSpan span) {
  ThreadRing* ring = RingForThisThread();
  span.thread_index = ring->thread_index;
  std::lock_guard<std::mutex> lk(ring->mu);
  if (ring->slots.size() < ring_capacity_) {
    ring->slots.push_back(std::move(span));
  } else {
    ring->slots[ring->next] = std::move(span);
    ring->next = (ring->next + 1) % ring_capacity_;
    spans_dropped_counter_->Increment();
  }
}

std::vector<TraceSpan> Tracer::CollectSpans() const {
  std::vector<TraceSpan> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> rlk(ring->mu);
    // Oldest-first: once wrapped, `next` points at the oldest slot.
    const size_t n = ring->slots.size();
    const size_t start = n < ring_capacity_ ? 0 : ring->next;
    for (size_t k = 0; k < n; ++k) {
      out.push_back(ring->slots[(start + k) % n]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.depth < b.depth;
                   });
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> rlk(ring->mu);
    ring->slots.clear();
    ring->next = 0;
  }
}

// ---------------------------------------------------------------------------
// ScopedSpan / PhaseSpan

ScopedSpan::ScopedSpan(Tracer& tracer, std::string_view name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  span_.name.assign(name);
  span_.depth = tls_span_depth++;
  span_.start_ns = tracer.NowNs();
}

void ScopedSpan::AddArg(std::string_view key, uint64_t value) {
  if (tracer_ == nullptr) return;
  span_.args.emplace_back(std::string(key), value);
}

void ScopedSpan::End() {
  if (tracer_ == nullptr) return;
  span_.duration_ns = tracer_->NowNs() - span_.start_ns;
  --tls_span_depth;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  AttachSpanContext(span_);
  tracer->Record(std::move(span_));
}

PhaseSpan::PhaseSpan(Tracer& tracer, std::string_view name)
    : tracer_(&tracer),
      tracing_(tracer.enabled()),
      sampler_(tracer.phase_sampler()) {
  if (tracing_ || sampler_ != nullptr) span_.name.assign(name);
  if (tracing_) {
    span_.depth = tls_span_depth++;
    span_.start_ns = tracer.NowNs();
  }
  // The sampler read (a syscall for hardware counters) happens before
  // the stopwatch starts so it is not billed to the phase.
  if (sampler_ != nullptr) sampler_->OnPhaseBegin();
  start_ = std::chrono::steady_clock::now();
}

void PhaseSpan::AddArg(std::string_view key, uint64_t value) {
  if (!tracing_ || tracer_ == nullptr) return;
  span_.args.emplace_back(std::string(key), value);
}

// Records one phase's sampler deltas into the default registry:
// counters accumulate ("fpm.phase.mine.cycles" over all mine phases),
// gauges keep the latest phase's derived value.
namespace {
void RecordPhaseSampleMetrics(const std::string& phase,
                              const PhaseSampleDeltas& deltas) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  if (!registry.enabled() || deltas.empty()) return;
  std::string name;
  for (const auto& [key, value] : deltas.counters) {
    name = "fpm.phase." + phase + "." + key;
    registry.GetCounter(name)->Add(value);
  }
  for (const auto& [key, value] : deltas.gauges) {
    name = "fpm.phase." + phase + "." + key;
    registry.GetGauge(name)->Set(value);
  }
}
}  // namespace

double PhaseSpan::End() {
  if (tracer_ == nullptr) return elapsed_seconds_;
  elapsed_seconds_ = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  // Stopwatch is stopped; the sampler read and metric writes below are
  // span-exit overhead, not phase time.
  if (sampler_ != nullptr) {
    sampler_->OnPhaseEnd(span_.name, &deltas_);
    RecordPhaseSampleMetrics(span_.name, deltas_);
    if (tracing_) {
      for (const auto& [key, value] : deltas_.counters) {
        span_.args.emplace_back(key, value);
      }
    }
  }
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  if (tracing_) {
    span_.duration_ns = tracer->NowNs() - span_.start_ns;
    --tls_span_depth;
    AttachSpanContext(span_);
    tracer->Record(std::move(span_));
  }
  return elapsed_seconds_;
}

// ---------------------------------------------------------------------------
// Exporter

void WriteChromeTracing(std::span<const TraceSpan> spans, std::ostream& os) {
  os << "{\"traceEvents\":[";
  Quoter quoted;
  char buf[64];
  for (size_t k = 0; k < spans.size(); ++k) {
    const TraceSpan& s = spans[k];
    if (k > 0) os << ',';
    os << "{\"name\":" << quoted(s.name);
    // Microsecond timestamps with nanosecond precision kept as decimals.
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", s.start_ns / 1000,
                  static_cast<unsigned>(s.start_ns % 1000));
    os << ",\"cat\":\"fpm\",\"ph\":\"X\",\"ts\":" << buf;
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", s.duration_ns / 1000,
                  static_cast<unsigned>(s.duration_ns % 1000));
    os << ",\"dur\":" << buf << ",\"pid\":1,\"tid\":" << s.thread_index;
    if (!s.args.empty()) {
      os << ",\"args\":{";
      for (size_t i = 0; i < s.args.size(); ++i) {
        if (i > 0) os << ',';
        os << quoted(s.args[i].first) << ':' << s.args[i].second;
      }
      os << '}';
    }
    os << '}';
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace fpm
