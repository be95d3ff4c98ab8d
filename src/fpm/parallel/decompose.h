// First-item equivalence-class decomposition for the parallel driver.
//
// Items are ranked by frequency once. The class owned by item i (the
// *least frequent* member of its itemsets) is the conditional database of
// i: the transactions containing i, restricted to items more frequent
// than i. Classes are disjoint and jointly exhaustive.
//
// Nothing is copied per class up front. The decomposition keeps one
// ranked database (each transaction's frequent items as ascending ranks)
// and a class-major row index: a row (tid, length) names the prefix of
// ranked transaction tid that precedes the class owner. A class task
// later builds its conditional database from its rows (ProjectClass),
// copying only the items that are frequent inside the class.

#ifndef FPM_PARALLEL_DECOMPOSE_H_
#define FPM_PARALLEL_DECOMPOSE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "fpm/dataset/database.h"

namespace fpm {

class ThreadPool;

/// One transaction of a class: ranked transaction `tid`, cut to its
/// first `length` items (the items ranked before the class owner).
struct ClassRow {
  Tid tid;
  uint32_t length;
};

/// Product of the one-pass decomposition. The global frequency ranking
/// is computed exactly once here; class tasks read it, the ranked
/// database and the row index without copying them.
struct ClassDecomposition {
  /// rank -> raw item id of every frequent rank, for mapping class-local
  /// results back.
  std::vector<Item> rank_to_item;
  /// Global (weighted) support of each class owner, by rank.
  std::vector<Support> class_supports;
  /// The input with every transaction cut to its frequent items, as
  /// ascending ranks. Transaction ids and weights are the input's.
  Database ranked;
  /// Class-major row index: class c owns
  /// rows[row_begin[c] .. row_begin[c + 1]), in tid order.
  std::vector<size_t> row_begin;
  std::vector<ClassRow> rows;
  /// Projected entries per class (the sum of its row lengths): the work
  /// estimate used for largest-first scheduling.
  std::vector<uint64_t> class_entries;

  size_t num_classes() const { return class_supports.size(); }

  std::span<const ClassRow> class_rows(Item c) const {
    return std::span<const ClassRow>(rows).subspan(
        row_begin[c], row_begin[c + 1] - row_begin[c]);
  }

  /// Heap bytes of the ranked database and the row index.
  size_t memory_bytes() const;
};

/// Ranks items, cuts every transaction to its frequent ranks, builds the
/// row index, and records the fpm.parallel.classes /
/// fpm.parallel.class_entries metrics. Classes exist only for items with
/// support >= min_support. With a `pool`, the ranking and index passes
/// run over tid blocks on it; the result is identical to the serial pass.
ClassDecomposition DecomposeClasses(const Database& db, Support min_support,
                                    ThreadPool* pool = nullptr);

/// The conditional database of class `c`: one transaction per row of the
/// class, in row order, holding the row's items whose support inside the
/// class reaches `min_support` (still as global ranks, ascending). Rows
/// left empty are kept, so num_transactions() and total_weight() are
/// those of the full projection.
Database ProjectClass(const ClassDecomposition& decomp, Item c,
                      Support min_support);

}  // namespace fpm

#endif  // FPM_PARALLEL_DECOMPOSE_H_
