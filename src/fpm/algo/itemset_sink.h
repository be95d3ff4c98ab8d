// Output sinks for miners. Miners emit every frequent itemset exactly
// once (in the *original* item-id space, regardless of any internal
// re-ranking); sinks decide what to do with them.
//
// Concurrency contract: Emit() calls on a given sink are always
// serialized — a sink never needs to be internally thread-safe. The
// sequential kernels emit from the calling thread; the parallel driver
// (fpm/parallel/) gives each class task a private buffer and replays
// the buffers into the caller's sink from one thread, or serializes
// direct emission under a lock.

#ifndef FPM_ALGO_ITEMSET_SINK_H_
#define FPM_ALGO_ITEMSET_SINK_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fpm/dataset/types.h"

namespace fpm {

/// Receives frequent itemsets as they are discovered. `itemset` is only
/// valid for the duration of the call; implementations must copy if they
/// retain it. Item order within `itemset` is unspecified.
///
/// Implementations need not be thread-safe: callers guarantee Emit()
/// invocations are serialized (see the header comment).
class ItemsetSink {
 public:
  virtual ~ItemsetSink() = default;
  virtual void Emit(std::span<const Item> itemset, Support support) = 0;
};

/// Counts itemsets and accumulates an order-insensitive checksum — the
/// bench sink: O(1) memory and defeats dead-code elimination.
class CountingSink : public ItemsetSink {
 public:
  void Emit(std::span<const Item> itemset, Support support) override {
    ++count_;
    support_sum_ += support;
    if (itemset.size() > max_size_) max_size_ = itemset.size();
    // Order-insensitive mix: commutative over both emission order and
    // item order within the set.
    uint64_t h = kFnv1aOffsetBasis;
    for (Item it : itemset) {
      h += (static_cast<uint64_t>(it) + 0x9e3779b97f4a7c15ull) *
           0xff51afd7ed558ccdull;
    }
    checksum_ ^= h * (support + 1);
  }

  uint64_t count() const { return count_; }
  uint64_t support_sum() const { return support_sum_; }
  uint64_t checksum() const { return checksum_; }
  size_t max_size() const { return max_size_; }

 private:
  uint64_t count_ = 0;
  uint64_t support_sum_ = 0;
  uint64_t checksum_ = 0;
  size_t max_size_ = 0;
};

/// Materializes every itemset — the test sink. Canonicalize() sorts
/// items within sets and sets lexicographically so results from
/// different miners compare equal.
class CollectingSink : public ItemsetSink {
 public:
  using Entry = std::pair<Itemset, Support>;

  void Emit(std::span<const Item> itemset, Support support) override {
    Itemset set(itemset.begin(), itemset.end());
    std::sort(set.begin(), set.end());
    results_.emplace_back(std::move(set), support);
  }

  /// Sorts results into canonical order (itemset lexicographic).
  void Canonicalize() {
    std::sort(results_.begin(), results_.end());
  }

  const std::vector<Entry>& results() const { return results_; }
  std::vector<Entry>& mutable_results() { return results_; }
  size_t size() const { return results_.size(); }

 private:
  std::vector<Entry> results_;
};

}  // namespace fpm

#endif  // FPM_ALGO_ITEMSET_SINK_H_
