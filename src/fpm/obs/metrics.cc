#include "fpm/obs/metrics.h"

#include <algorithm>
#include <ostream>

#include "fpm/common/json_writer.h"
#include "fpm/common/logging.h"
#include "fpm/obs/thread_index.h"

namespace fpm {
namespace {

std::atomic<uint64_t> g_next_registry_id{1};

// One-entry cache mapping this thread to its shard in the registry it
// used last. Threads alternating between registries re-resolve through
// the slow path on each switch; the common case (one registry) stays a
// single comparison. Registry ids are never reused, so a stale cache
// entry can only miss, never alias.
struct TlsShardCache {
  uint64_t registry_id = 0;
  void* shard = nullptr;
};
thread_local TlsShardCache tls_shard_cache;

}  // namespace

// ---------------------------------------------------------------------------
// Shard

MetricsRegistry::Shard::~Shard() {
  for (auto& block : blocks) {
    delete[] block.load(std::memory_order_acquire);
  }
}

std::atomic<uint64_t>* MetricsRegistry::Shard::GetBlock(uint32_t block_index) {
  std::atomic<uint64_t>* block =
      blocks[block_index].load(std::memory_order_acquire);
  if (block != nullptr) return block;
  std::lock_guard<std::mutex> lk(grow_mu);
  block = blocks[block_index].load(std::memory_order_acquire);
  if (block == nullptr) {
    block = new std::atomic<uint64_t>[kBlockSlots]();  // zero-initialized
    blocks[block_index].store(block, std::memory_order_release);
  }
  return block;
}

// ---------------------------------------------------------------------------
// Write path

void Counter::Add(uint64_t delta) {
  if (!registry_->enabled()) return;
  registry_->AddToSlot(slot_, delta);
}

void Gauge::Set(uint64_t value) {
  if (!registry_->enabled()) return;
  value_.store(value, std::memory_order_relaxed);
}

void Gauge::UpdateMax(uint64_t value) {
  if (!registry_->enabled()) return;
  uint64_t current = value_.load(std::memory_order_relaxed);
  while (current < value &&
         !value_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void Histogram::Observe(uint64_t value) {
  if (!registry_->enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const uint32_t bucket = static_cast<uint32_t>(it - bounds_.begin());
  registry_->AddToSlot(base_slot_ + bucket, 1);
  registry_->AddToSlot(base_slot_ + static_cast<uint32_t>(bounds_.size()) + 1,
                       value);
}

void MetricsRegistry::AddToSlot(uint32_t slot, uint64_t delta) {
  Shard* shard = ShardForThisThread();
  std::atomic<uint64_t>* block = shard->GetBlock(slot / kBlockSlots);
  block[slot % kBlockSlots].fetch_add(delta, std::memory_order_relaxed);
}

MetricsRegistry::Shard* MetricsRegistry::ShardForThisThread() {
  if (tls_shard_cache.registry_id == id_) {
    return static_cast<Shard*>(tls_shard_cache.shard);
  }
  const uint32_t thread_index = ObsThreadIndex();
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& shard : shards_) {
    if (shard->thread_index == thread_index) {
      tls_shard_cache = {id_, shard.get()};
      return shard.get();
    }
  }
  shards_.push_back(std::make_unique<Shard>());
  shards_.back()->thread_index = thread_index;
  tls_shard_cache = {id_, shards_.back().get()};
  return shards_.back().get();
}

// ---------------------------------------------------------------------------
// Registration

MetricsRegistry::MetricsRegistry(bool enabled)
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)),
      enabled_(enabled) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry(/*enabled=*/false);
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& c : counters_) {
    if (c->name_ == name) return c.get();
  }
  FPM_CHECK(next_slot_ + 1 <= kMaxSlots) << "metric slot space exhausted";
  counters_.emplace_back(new Counter(this, next_slot_, std::string(name)));
  ++next_slot_;
  return counters_.back().get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& g : gauges_) {
    if (g->name_ == name) return g.get();
  }
  gauges_.emplace_back(new Gauge(this, std::string(name)));
  return gauges_.back().get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<uint64_t> bounds) {
  FPM_CHECK(!bounds.empty()) << "histogram needs at least one bucket bound";
  FPM_CHECK(std::is_sorted(bounds.begin(), bounds.end()) &&
            std::adjacent_find(bounds.begin(), bounds.end()) == bounds.end())
      << "histogram bounds must be strictly increasing";
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& h : histograms_) {
    if (h->name_ == name) {
      FPM_CHECK(h->bounds_ == bounds)
          << "histogram '" << h->name_ << "' re-registered with other bounds";
      return h.get();
    }
  }
  const uint32_t slots = static_cast<uint32_t>(bounds.size()) + 2;
  FPM_CHECK(next_slot_ + slots <= kMaxSlots) << "metric slot space exhausted";
  histograms_.emplace_back(
      new Histogram(this, next_slot_, std::move(bounds), std::string(name)));
  next_slot_ += slots;
  return histograms_.back().get();
}

// ---------------------------------------------------------------------------
// Read path

uint64_t MetricsRegistry::SumSlot(uint32_t slot) const {
  // Caller holds mu_.
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    const std::atomic<uint64_t>* block =
        shard->blocks[slot / kBlockSlots].load(std::memory_order_acquire);
    if (block != nullptr) {
      total += block[slot % kBlockSlots].load(std::memory_order_relaxed);
    }
  }
  return total;
}

MetricsSnapshot MetricsRegistry::Snapshot(bool per_thread) const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& c : counters_) {
    CounterSample sample;
    sample.name = c->name_;
    sample.value = SumSlot(c->slot_);
    if (per_thread) {
      for (const auto& shard : shards_) {
        const std::atomic<uint64_t>* block =
            shard->blocks[c->slot_ / kBlockSlots].load(
                std::memory_order_acquire);
        const uint64_t v =
            block == nullptr
                ? 0
                : block[c->slot_ % kBlockSlots].load(
                      std::memory_order_relaxed);
        if (v != 0) sample.per_thread.emplace_back(shard->thread_index, v);
      }
      std::sort(sample.per_thread.begin(), sample.per_thread.end());
    }
    snap.counters.push_back(std::move(sample));
  }
  for (const auto& g : gauges_) {
    snap.gauges.push_back({g->name_, g->value()});
  }
  for (const auto& h : histograms_) {
    HistogramSample sample;
    sample.name = h->name_;
    sample.bounds = h->bounds_;
    const uint32_t nb = static_cast<uint32_t>(h->bounds_.size());
    sample.counts.resize(nb + 1);
    for (uint32_t i = 0; i <= nb; ++i) {
      sample.counts[i] = SumSlot(h->base_slot_ + i);
    }
    sample.sum = SumSlot(h->base_slot_ + nb + 1);
    snap.histograms.push_back(std::move(sample));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& shard : shards_) {
    for (auto& block_ptr : shard->blocks) {
      std::atomic<uint64_t>* block =
          block_ptr.load(std::memory_order_acquire);
      if (block == nullptr) continue;
      for (uint32_t i = 0; i < kBlockSlots; ++i) {
        block[i].store(0, std::memory_order_relaxed);
      }
    }
  }
  for (const auto& g : gauges_) g->value_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Snapshot

uint64_t HistogramSample::count() const {
  uint64_t n = 0;
  for (uint64_t c : counts) n += c;
  return n;
}

uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const CounterSample& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

uint64_t MetricsSnapshot::gauge(std::string_view name) const {
  for (const GaugeSample& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const HistogramSample* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta = *this;
  for (CounterSample& c : delta.counters) {
    const uint64_t before = earlier.counter(c.name);
    c.value -= before < c.value ? before : c.value;
    c.per_thread.clear();  // per-thread deltas are not tracked
  }
  for (HistogramSample& h : delta.histograms) {
    const HistogramSample* before = earlier.histogram(h.name);
    if (before == nullptr || before->counts.size() != h.counts.size()) {
      continue;
    }
    for (size_t i = 0; i < h.counts.size(); ++i) {
      h.counts[i] -= std::min(before->counts[i], h.counts[i]);
    }
    h.sum -= std::min(before->sum, h.sum);
  }
  return delta;
}

void MetricsSnapshot::WriteJson(std::ostream& os) const {
  std::string name;
  const auto quoted = [&name](std::string_view s) -> const std::string& {
    name.clear();
    AppendJsonString(&name, s);
    return name;
  };
  os << "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) os << ',';
    os << quoted(counters[i].name) << ':' << counters[i].value;
  }
  os << "}";
  bool any_per_thread = false;
  for (const CounterSample& c : counters) {
    if (!c.per_thread.empty()) any_per_thread = true;
  }
  if (any_per_thread) {
    os << ",\"counters_per_thread\":{";
    bool first = true;
    for (const CounterSample& c : counters) {
      if (c.per_thread.empty()) continue;
      if (!first) os << ',';
      first = false;
      os << quoted(c.name) << ":{";
      for (size_t i = 0; i < c.per_thread.size(); ++i) {
        if (i > 0) os << ',';
        os << '"' << c.per_thread[i].first << "\":" << c.per_thread[i].second;
      }
      os << '}';
    }
    os << '}';
  }
  os << ",\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) os << ',';
    os << quoted(gauges[i].name) << ':' << gauges[i].value;
  }
  os << "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    if (i > 0) os << ',';
    os << quoted(h.name) << ":{\"bounds\":[";
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) os << ',';
      os << h.bounds[b];
    }
    os << "],\"counts\":[";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) os << ',';
      os << h.counts[b];
    }
    os << "],\"sum\":" << h.sum << '}';
  }
  os << "}}";
}

}  // namespace fpm
