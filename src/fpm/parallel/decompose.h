// First-item equivalence-class decomposition for the parallel driver.
//
// Items are ranked by frequency once. The class owned by item i (the
// *least frequent* member of its itemsets) is the conditional database of
// i: the transactions containing i, restricted to items more frequent
// than i. Classes are disjoint and jointly exhaustive.
//
// Nothing is copied per class up front. The decomposition keeps the
// input in one of two forms, picked by the input before any pass, with
// no option:
//
//  - The dense form, on an unweighted input that repeats no item and
//    whose rank bitmaps (one bit per frequent rank per transaction) take
//    at most half as many words as it has frequent entries. It keeps two
//    bitmaps: each transaction's rank bitmap, and each rank's tid bitmap,
//    the transactions that own a row of that rank's class (every
//    transaction holding the rank but those where it is the lowest). One
//    pass over blocks of 512 tids writes both, each block zero-filling
//    its own words. ProjectClass reads a class's rows from its tid
//    bitmap, counts them 16 at a time through carry-save adders, compares
//    every rank with min_support one bit plane at a time, and copies a
//    kept class's items out of the rank bitmaps.
//  - The row form, on every other input. It keeps one ranked database
//    (each transaction's frequent items as ascending ranks) and a
//    class-major row index: a row (tid, length) names the prefix of
//    ranked transaction tid that precedes the class owner (its first
//    occurrence, when the input repeats the item). Three passes build it:
//    each block counts its frequent entries, writes its ranked
//    transactions into the one items array at a base taken from a prefix
//    sum of those counts, and writes its rows through class-major
//    cursors. A transaction's ranks are ordered through a bitmap, read
//    back over the words between its lowest and highest rank; one whose
//    ranks span more words than it has ranks, or that repeats an item, is
//    sorted instead, so each transaction costs time linear in its length.
//    ProjectClass counts a class row by row into per-thread counters.
//
// A repeat found by the dense pass drops its bitmaps, and the row form is
// built instead. Every pass runs over tid blocks on the driver's pool and
// writes its output in place: no pass over the entries, rows or bitmaps
// runs on one thread, and no array is zero-filled on one thread first.
// Both forms give every class the same conditional database.

#ifndef FPM_PARALLEL_DECOMPOSE_H_
#define FPM_PARALLEL_DECOMPOSE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fpm/dataset/database.h"

namespace fpm {

class ThreadPool;

/// Frees an array that AllocateCacheLineWords allocated.
struct CacheLineWordsFree {
  void operator()(uint64_t* words) const;
};

/// Words starting on a cache-line boundary, so that the dense pass's tid
/// blocks, each writing whole lines, never share one.
using CacheLineWords = std::unique_ptr<uint64_t[], CacheLineWordsFree>;

/// One transaction of a class on the row form: ranked transaction `tid`,
/// cut to its first `length` items (the items ranked before the owner).
struct ClassRow {
  Tid tid;
  uint32_t length;
};

/// Product of the one-pass decomposition. The global frequency ranking
/// is computed exactly once here; class tasks read it and the form the
/// input took without copying them. A decomposition holds one form: the
/// row form's fields are empty on the dense form, and the dense form's
/// null on the row form.
struct ClassDecomposition {
  /// rank -> raw item id of every frequent rank, for mapping class-local
  /// results back.
  std::vector<Item> rank_to_item;
  /// Global (weighted) support of each class owner, by rank.
  std::vector<Support> supports;
  /// The input's transaction count.
  size_t num_transactions = 0;
  /// Per class, the work estimate used for largest-first scheduling: on
  /// the row form the projected entries (the sum of its row lengths), on
  /// the dense form an estimate of them, its rows times the ranks below
  /// c that a transaction holds on average (their supports over N).
  std::vector<uint64_t> class_entries;

  // The row form.

  /// The input with every transaction cut to its frequent items, as
  /// ascending ranks. Transaction ids and weights are the input's; the
  /// item universe is the F frequent ranks, whose frequencies are a view
  /// of `supports`.
  Database ranked;
  /// Class-major row index: class c owns
  /// rows()[row_begin[c] .. row_begin[c + 1]), in tid order.
  std::vector<size_t> row_begin;
  std::unique_ptr<ClassRow[]> row_data;  // row_begin.back() rows

  // The dense form.

  /// Rank bitmaps, rank_words = ceil(F / 64) words per transaction: bit r
  /// of transaction t's bitmap is set when t holds rank r.
  size_t rank_words = 0;
  CacheLineWords rank_bitmaps;
  /// Tid bitmaps, tid_words words per rank (ceil(N / 64), padded to a
  /// multiple of 8): bit t of rank c's bitmap is set when transaction t
  /// owns a row of class c, that is, holds c and a rank below it.
  size_t tid_words = 0;
  CacheLineWords tid_bitmaps;

  size_t num_classes() const { return rank_to_item.size(); }

  /// True when the decomposition holds the dense form.
  bool dense() const { return tid_bitmaps != nullptr; }

  std::span<const Support> class_supports() const { return supports; }

  std::span<const ClassRow> rows() const {
    return {row_data.get(), row_begin.empty() ? 0 : row_begin.back()};
  }

  std::span<const ClassRow> class_rows(Item c) const {
    return rows().subspan(row_begin[c], row_begin[c + 1] - row_begin[c]);
  }

  const uint64_t* rank_bitmap(Tid t) const {
    return rank_bitmaps.get() + size_t{t} * rank_words;
  }

  const uint64_t* tid_bitmap(Item c) const {
    return tid_bitmaps.get() + size_t{c} * tid_words;
  }

  /// Heap bytes of the supports and of the form that is held: the ranked
  /// database and the row index, or the two bitmaps.
  size_t memory_bytes() const;
};

/// Ranks items, builds the form the input takes (see the top of this
/// file), and records the fpm.parallel.classes /
/// fpm.parallel.class_entries metrics. Classes exist only for items with
/// support >= min_support. With a `pool`, every pass runs over tid blocks
/// on it; the result is identical to the serial pass.
ClassDecomposition DecomposeClasses(const Database& db, Support min_support,
                                    ThreadPool* pool = nullptr);

/// The conditional database of class `c`: one transaction per row of the
/// class, in tid order, holding the row's items whose support inside the
/// class reaches `min_support` (still as global ranks, ascending). Rows
/// left empty are kept, so num_transactions() and total_weight() are
/// those of the full projection. A class with no item frequent inside it
/// has nothing to mine and gets an empty database: no transactions.
/// Counted through the adders on the dense form, row by row on the row
/// form; both give the same database.
Database ProjectClass(const ClassDecomposition& decomp, Item c,
                      Support min_support);

}  // namespace fpm

#endif  // FPM_PARALLEL_DECOMPOSE_H_
