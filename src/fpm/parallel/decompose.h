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
// ranked transaction tid that precedes the class owner (its first
// occurrence, when a packed file repeats the item). A class task later
// builds its conditional database from its rows (ProjectClass), copying
// only the items that are frequent inside the class.
//
// Both passes run over tid blocks on the driver's pool and write their
// output in place: each block writes its ranked transactions into the
// one items array at a base taken from a prefix sum of the blocks'
// frequent-entry counts, and its rows through class-major cursors. A
// transaction's ranks are ordered through a bitmap, read back over the
// words between its lowest and highest rank; one whose ranks span more
// words than it has ranks is sorted instead, so each transaction costs
// time linear in its length. No pass over the entries, rows or bitmaps
// runs on one thread, and no array is zero-filled on one thread first.
//
// How a class is counted follows from the input; there is no option. On
// an unweighted input that repeats no rank and whose rank bitmaps (one
// bit per frequent rank per transaction) take at most half as many
// words as it has ranked entries, the decomposition keeps every ranked
// transaction as its bitmap: pass 1 orders the ranks through that
// transaction's own bitmap row, zero-filled by its block, and leaves it
// set. ProjectClass then counts a class 16 rows at a time through
// carry-save adders and compares every rank with min_support one bit
// plane at a time. Any other input is counted row by row into
// per-thread counters.

#ifndef FPM_PARALLEL_DECOMPOSE_H_
#define FPM_PARALLEL_DECOMPOSE_H_

#include <cstdint>
#include <memory>
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
  /// The input with every transaction cut to its frequent items, as
  /// ascending ranks. Transaction ids and weights are the input's; the
  /// item universe is the F frequent ranks.
  Database ranked;
  /// Class-major row index: class c owns
  /// rows()[row_begin[c] .. row_begin[c + 1]), in tid order.
  std::vector<size_t> row_begin;
  std::unique_ptr<ClassRow[]> row_data;  // row_begin.back() rows
  /// Projected entries per class (the sum of its row lengths): the work
  /// estimate used for largest-first scheduling.
  std::vector<uint64_t> class_entries;
  /// Rank bitmaps of the ranked transactions, bitmap_words words each:
  /// bit r of transaction t's row, at t * bitmap_words, is set when t
  /// holds rank r. Null unless the input is unweighted, repeats no rank
  /// and 2 * num_transactions * bitmap_words <= its ranked entries.
  size_t bitmap_words = 0;
  std::unique_ptr<uint64_t[]> bitmaps;

  size_t num_classes() const { return rank_to_item.size(); }

  /// Global (weighted) support of each class owner, by rank: the ranked
  /// database's item frequencies.
  std::span<const Support> class_supports() const {
    return ranked.item_frequencies();
  }

  std::span<const ClassRow> rows() const {
    return {row_data.get(), row_begin.empty() ? 0 : row_begin.back()};
  }

  std::span<const ClassRow> class_rows(Item c) const {
    return rows().subspan(row_begin[c], row_begin[c + 1] - row_begin[c]);
  }

  /// Heap bytes of the ranked database, the row index and the bitmaps.
  size_t memory_bytes() const;
};

/// Ranks items, cuts every transaction to its frequent ranks, builds the
/// row index (and the rank bitmaps, when the input qualifies), and
/// records the fpm.parallel.classes / fpm.parallel.class_entries
/// metrics. Classes exist only for items with support >= min_support.
/// With a `pool`, every pass runs over tid blocks on it; the result is
/// identical to the serial pass.
ClassDecomposition DecomposeClasses(const Database& db, Support min_support,
                                    ThreadPool* pool = nullptr);

/// The conditional database of class `c`: one transaction per row of the
/// class, in row order, holding the row's items whose support inside the
/// class reaches `min_support` (still as global ranks, ascending). Rows
/// left empty are kept, so num_transactions() and total_weight() are
/// those of the full projection. A class with no item frequent inside it
/// has nothing to mine and gets an empty database: no transactions.
/// Counted from the rank bitmaps when the decomposition kept them, else
/// from the rows; both give the same database.
Database ProjectClass(const ClassDecomposition& decomp, Item c,
                      Support min_support);

}  // namespace fpm

#endif  // FPM_PARALLEL_DECOMPOSE_H_
