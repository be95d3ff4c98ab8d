// Pattern P1 — lexicographic ordering of the initial database (§3.2).
//
// Two steps: (1) remap items into decreasing-frequency ranks and sort
// each transaction by rank, so the most frequent item leads; (2) sort the
// transactions lexicographically over that alphabet. Transactions
// sharing frequent prefixes become memory-adjacent, which improves the
// spatial locality of every per-item column walk (LCM's occurrence
// traversal, FP-tree insertion, and — via clustered tid ranges — enables
// Eclat's 0-escaping).

#ifndef FPM_LAYOUT_LEXICOGRAPHIC_H_
#define FPM_LAYOUT_LEXICOGRAPHIC_H_

#include <vector>

#include "fpm/dataset/database.h"
#include "fpm/layout/item_order.h"

namespace fpm {

/// Result of applying P1: the reordered database plus the permutation
/// that produced it (`tid_permutation[new_tid] == old_tid`).
struct LexicographicResult {
  Database database;
  ItemOrder item_order;
  std::vector<Tid> tid_permutation;
};

/// Applies pattern P1 to `db`. Items in the result are *ranks* (dense,
/// 0 = most frequent); transactions are sorted lexicographically.
/// Weighted transactions keep their weights.
LexicographicResult LexicographicOrder(const Database& db);

}  // namespace fpm

#endif  // FPM_LAYOUT_LEXICOGRAPHIC_H_
