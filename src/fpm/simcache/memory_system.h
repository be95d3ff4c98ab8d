// L1 -> L2 (+TLB) hierarchy built from CacheModel, with presets for the
// paper's two evaluation platforms (Table 5).

#ifndef FPM_SIMCACHE_MEMORY_SYSTEM_H_
#define FPM_SIMCACHE_MEMORY_SYSTEM_H_

#include <string>

#include "fpm/simcache/cache_model.h"

namespace fpm {

/// Hierarchy geometry.
struct MemorySystemConfig {
  std::string name = "custom";
  CacheConfig l1;
  CacheConfig l2;
  uint32_t tlb_entries = 64;
  uint32_t page_bytes = 4096;
  /// Models the next-line hardware prefetcher both evaluation platforms
  /// had: every access fills the successor line alongside, so a
  /// sequential stream misses only on its first line while pointer
  /// chasing gains nothing (and pays slight pollution).
  bool next_line_prefetch = true;

  /// M1: Intel Pentium D 830 — 16KB 8-way L1D, 1MB 8-way L2 (Table 5).
  static MemorySystemConfig PentiumD();
  /// M2: AMD Athlon 64 X2 4200+ — 64KB 2-way L1D, 512KB 16-way L2.
  static MemorySystemConfig Athlon64X2();
};

/// Aggregate miss counts of one simulation.
struct MemorySystemStats {
  CacheStats l1;
  CacheStats l2;  ///< accesses == l1.misses
  CacheStats tlb;

  /// Crude cost model: cycles = hits*1 + l2hits*14 + mem*240 + tlbmiss*30.
  /// Only meaningful for *comparing* layouts, not predicting real time.
  double EstimatedCycles() const;
};

/// Simulated read-path of one hierarchy. Not thread-safe.
class MemorySystem {
 public:
  explicit MemorySystem(const MemorySystemConfig& config);

  /// Simulates a `bytes`-wide read at `addr` (touches every spanned
  /// line once).
  void Touch(uint64_t addr, size_t bytes = 1);

  /// Convenience for touching a typed object's storage.
  template <typename T>
  void TouchObject(const T* ptr) {
    Touch(reinterpret_cast<uint64_t>(ptr), sizeof(T));
  }

  /// Touches an array range [ptr, ptr+count).
  template <typename T>
  void TouchRange(const T* ptr, size_t count) {
    Touch(reinterpret_cast<uint64_t>(ptr), count * sizeof(T));
  }

  void Reset();

  MemorySystemStats stats() const;
  const MemorySystemConfig& config() const { return config_; }

 private:
  MemorySystemConfig config_;
  CacheModel l1_;
  CacheModel l2_;
  TlbModel tlb_;
};

}  // namespace fpm

#endif  // FPM_SIMCACHE_MEMORY_SYSTEM_H_
