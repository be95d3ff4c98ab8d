// Fundamental value types of the mining library.

#ifndef FPM_DATASET_TYPES_H_
#define FPM_DATASET_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fpm/common/hash.h"

namespace fpm {

/// Item identifier. The database re-maps raw input item ids into a dense
/// range [0, num_items); the layout library additionally re-maps them into
/// frequency-descending order (pattern P1).
using Item = uint32_t;

/// Transaction identifier: index into the database.
using Tid = uint32_t;

/// Number of transactions supporting an itemset.
using Support = uint32_t;

/// A materialized itemset (sorted ascending by convention).
using Itemset = std::vector<Item>;

/// Sentinel for "no item".
inline constexpr Item kInvalidItem = ~static_cast<Item>(0);

/// Hash of an itemset or transaction for hash tables and bucket arrays:
/// FNV-1a-64 with one step per item. Order-sensitive, so sets must be
/// hashed in one agreed order (sorted, or a transaction's stored order).
struct ItemsetHash {
  size_t operator()(std::span<const Item> items) const {
    uint64_t h = kFnv1aOffsetBasis;
    for (Item it : items) h = Fnv1aStep(h, it);
    return static_cast<size_t>(h);
  }
};

}  // namespace fpm

#endif  // FPM_DATASET_TYPES_H_
