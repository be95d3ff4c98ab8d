// Pattern P4 — compaction (§3.3): copy data scattered across memory into
// consecutive locations before a phase that accesses it repeatedly. The
// copy cost must be amortized over many subsequent accesses.
//
// The LCM case study compacts the per-item frequency counters out of the
// occurrence-array column headers (AoS) into one contiguous array (SoA).
// The tuned LCM does that inline (MineLevel in algo/lcm/lcm_miner.cc);
// the helpers below serve bench_micro_patterns.

#ifndef FPM_MEM_COMPACTION_H_
#define FPM_MEM_COMPACTION_H_

#include <cstdint>
#include <span>
#include <vector>

namespace fpm {

/// Gathers scattered values into a fresh contiguous vector.
/// `pointers` may contain nulls, which are skipped.
template <typename T>
std::vector<T> CompactCopy(std::span<const T* const> pointers) {
  std::vector<T> out;
  out.reserve(pointers.size());
  for (const T* p : pointers) {
    if (p != nullptr) out.push_back(*p);
  }
  return out;
}

/// Gathers `source[index]` for each index into a contiguous vector.
template <typename T, typename Index>
std::vector<T> CompactGather(std::span<const T> source,
                             std::span<const Index> indices) {
  std::vector<T> out;
  out.reserve(indices.size());
  for (Index i : indices) out.push_back(source[static_cast<size_t>(i)]);
  return out;
}

/// Contiguous counter array: the compacted (SoA) alternative to keeping
/// one counter inside each column-header struct.
class CounterTable {
 public:
  explicit CounterTable(size_t n) : counters_(n, 0) {}

  void Add(uint32_t index, uint32_t delta) { counters_[index] += delta; }
  uint32_t Get(uint32_t index) const { return counters_[index]; }

  /// Zeroes the counters touched by `touched` only — O(|touched|), the
  /// sparse-reset idiom miners rely on between projections.
  void ResetTouched(std::span<const uint32_t> touched) {
    for (uint32_t i : touched) counters_[i] = 0;
  }

  /// Zeroes everything.
  void ResetAll() { std::fill(counters_.begin(), counters_.end(), 0); }

  size_t size() const { return counters_.size(); }
  const uint32_t* data() const { return counters_.data(); }

 private:
  std::vector<uint32_t> counters_;
};

}  // namespace fpm

#endif  // FPM_MEM_COMPACTION_H_
