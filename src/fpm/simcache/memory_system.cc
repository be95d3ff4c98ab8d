#include "fpm/simcache/memory_system.h"

namespace fpm {

MemorySystemConfig MemorySystemConfig::PentiumD() {
  MemorySystemConfig c;
  c.name = "M1-PentiumD";
  c.l1 = CacheConfig{16 * 1024, 8, 64};
  c.l2 = CacheConfig{1024 * 1024, 8, 64};
  c.tlb_entries = 64;
  return c;
}

MemorySystemConfig MemorySystemConfig::Athlon64X2() {
  MemorySystemConfig c;
  c.name = "M2-Athlon64X2";
  c.l1 = CacheConfig{64 * 1024, 2, 64};
  c.l2 = CacheConfig{512 * 1024, 16, 64};
  c.tlb_entries = 40;
  return c;
}

double MemorySystemStats::EstimatedCycles() const {
  const uint64_t l1_hits = l1.accesses - l1.misses;
  const uint64_t l2_hits = l2.accesses - l2.misses;
  return static_cast<double>(l1_hits) * 1.0 +
         static_cast<double>(l2_hits) * 14.0 +
         static_cast<double>(l2.misses) * 240.0 +
         static_cast<double>(tlb.misses) * 30.0;
}

MemorySystem::MemorySystem(const MemorySystemConfig& config)
    : config_(config),
      l1_(config.l1),
      l2_(config.l2),
      tlb_(config.tlb_entries, config.page_bytes) {}

void MemorySystem::Touch(uint64_t addr, size_t bytes) {
  if (bytes == 0) bytes = 1;
  const uint64_t line = config_.l1.line_bytes;
  const uint64_t first = addr / line;
  const uint64_t last = (addr + bytes - 1) / line;
  for (uint64_t l = first; l <= last; ++l) {
    const uint64_t line_addr = l * line;
    tlb_.Access(line_addr);
    if (!l1_.Access(line_addr)) {
      l2_.Access(line_addr);
    }
    if (config_.next_line_prefetch) {
      // Fill the successor line in both levels (no stats impact): a
      // stream therefore misses only on its first line, while pointer
      // chasing gains nothing (and pays slight pollution) — matching
      // real next-line prefetcher behaviour.
      l1_.Install(line_addr + line);
      l2_.Install(line_addr + line);
    }
  }
}

void MemorySystem::Reset() {
  l1_.Reset();
  l2_.Reset();
  tlb_.Reset();
}

MemorySystemStats MemorySystem::stats() const {
  MemorySystemStats s;
  s.l1 = l1_.stats();
  s.l2 = l2_.stats();
  s.tlb = tlb_.stats();
  return s;
}

}  // namespace fpm
