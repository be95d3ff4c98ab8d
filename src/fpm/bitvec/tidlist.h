// Sparse vertical representation: per-item sorted transaction-id lists
// (§3.3 Feature 2, choice (2), in item-major form). The data structure
// adaptation pattern (P2): Eclat mines with these instead of the dense
// bit matrix when its frequent columns' fill is below
// 1 / kEclatTidListFillInverse (fpm/algo/eclat/eclat_miner.h).

#ifndef FPM_BITVEC_TIDLIST_H_
#define FPM_BITVEC_TIDLIST_H_

#include <span>
#include <vector>

#include "fpm/dataset/database.h"

namespace fpm {

/// Immutable item-major tid-list view of a horizontal database.
/// Transaction weights are kept out-of-line (no row expansion): support
/// of a list is the sum of its transactions' weights.
class TidListDatabase {
 public:
  /// Builds lists for items with id < item_bound.
  static TidListDatabase FromDatabase(const Database& db, size_t item_bound);

  size_t num_items() const { return offsets_.size() - 1; }
  size_t num_transactions() const { return weights_.size(); }

  /// Ascending tids of transactions containing `item`.
  std::span<const Tid> list(Item item) const {
    return {tids_.data() + offsets_[item],
            offsets_[item + 1] - offsets_[item]};
  }

  /// Per-transaction weights (all 1 for unweighted inputs).
  const std::vector<Support>& weights() const { return weights_; }

  size_t memory_bytes() const {
    return tids_.size() * sizeof(Tid) + offsets_.size() * sizeof(size_t) +
           weights_.size() * sizeof(Support);
  }

 private:
  std::vector<Tid> tids_;
  std::vector<size_t> offsets_{0};
  std::vector<Support> weights_;
};

/// Sorted-merge intersection: writes the common tids of `a` and `b` to
/// `out` (must have room for min(|a|,|b|)) and returns the number
/// written; `*support` receives the weighted support of the result.
size_t IntersectTidLists(std::span<const Tid> a, std::span<const Tid> b,
                         const Support* weights, Tid* out,
                         Support* support);

}  // namespace fpm

#endif  // FPM_BITVEC_TIDLIST_H_
