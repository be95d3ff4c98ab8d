// Horizontal transaction database as a *view* over a storage backend.
//
// Layout: CSR (compressed sparse row) — one flat `items` array plus an
// `offsets` array with one entry per transaction boundary. This is the
// "sparse, transaction-major" representation of the paper's §3.3
// (Feature 1 horizontal / Feature 2 sparse); it keeps each transaction's
// items in consecutive memory, the property pattern P1 builds on.
//
// Storage backends: a Database no longer owns heap vectors — it holds
// std::span views into a refcounted DatabaseStorage. Three backends
// exist:
//   - owned vectors (DatabaseBuilder::Build, the classic in-memory
//     path),
//   - a memory-mapped packed file (fpm/dataset/packed.h, OpenMapped),
//     whose CSR arrays live in the page cache, not on the heap,
//   - the parallel decomposition's ranked database
//     (fpm/parallel/decompose.h), whose arrays its tid blocks write in
//     place.
// Every consumer — kernels, layout, bitvector construction, parallel
// drivers — reads through the span accessors, so it cannot tell the
// backends apart; the byte-identical-mining contract rests on that.
// Copying a Database copies four spans and bumps one refcount.

#ifndef FPM_DATASET_DATABASE_H_
#define FPM_DATASET_DATABASE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fpm/common/status.h"
#include "fpm/dataset/types.h"

namespace fpm {

/// Where a Database's arrays live.
enum class StorageKind {
  kMemory,  ///< heap vectors owned by the storage
  kPacked,  ///< a memory-mapped packed file (fpm/dataset/packed.h)
};

/// Stable lowercase label ("memory" | "packed") for stats and logs.
const char* StorageKindName(StorageKind kind);

/// The backing store a Database views. Immutable once published;
/// shared by every Database copy and destroyed with the last one.
class DatabaseStorage {
 public:
  virtual ~DatabaseStorage() = default;

  virtual StorageKind kind() const = 0;

  /// Heap (malloc'd) bytes this storage holds resident. What registry
  /// eviction budgets account.
  virtual size_t resident_bytes() const = 0;

  /// Bytes backed by a file mapping (page cache, evictable by the OS,
  /// not malloc'd). 0 for owned-vector storage.
  virtual size_t mapped_bytes() const = 0;
};

/// Immutable transaction database. Build with DatabaseBuilder or map a
/// packed file with OpenMapped (fpm/dataset/packed.h).
class Database {
 public:
  Database() = default;

  /// Number of transactions.
  size_t num_transactions() const {
    return offsets_.size() <= 1 ? 0 : offsets_.size() - 1;
  }

  /// Size of the item universe: all item ids are < num_items().
  /// (Items with zero occurrences may exist below this bound.)
  size_t num_items() const { return num_items_; }

  /// Total number of (transaction, item) incidences.
  size_t num_entries() const { return items_.size(); }

  /// Items of transaction `t`, in stored order.
  std::span<const Item> transaction(Tid t) const {
    return {items_.data() + offsets_[t], offsets_[t + 1] - offsets_[t]};
  }

  /// Multiplicity of transaction `t` (merged duplicates); 1 by default.
  Support weight(Tid t) const { return weights_.empty() ? 1 : weights_[t]; }

  /// True when duplicate transactions were merged and carry weights.
  bool has_weights() const { return !weights_.empty(); }

  /// Per-item frequency: number of transactions (weighted) containing
  /// it. Size num_items().
  std::span<const Support> item_frequencies() const { return frequencies_; }

  /// Sum of weights over all transactions (== num_transactions() when
  /// unweighted).
  Support total_weight() const { return total_weight_; }

  /// Direct access to the flat CSR arrays (used by the miners). Views
  /// into the storage backend — valid for the Database's lifetime.
  std::span<const Item> items() const { return items_; }
  std::span<const size_t> offsets() const { return offsets_; }

  /// Per-transaction weights; empty when unweighted (all 1).
  std::span<const Support> weights() const { return weights_; }

  /// Average transaction length.
  double average_length() const {
    return num_transactions() == 0
               ? 0.0
               : static_cast<double>(items_.size()) / num_transactions();
  }

  /// Which backend holds the arrays.
  StorageKind storage_kind() const {
    return storage_ ? storage_->kind() : StorageKind::kMemory;
  }

  /// Heap bytes held by the database arrays. For a mapped database this
  /// is ~0: the arrays live in the page cache, not on the heap. This is
  /// the number registry eviction budgets against.
  size_t resident_bytes() const {
    return storage_ ? storage_->resident_bytes() : 0;
  }

  /// File-mapping bytes viewed by this database (0 when memory-backed).
  size_t mapped_bytes() const {
    return storage_ ? storage_->mapped_bytes() : 0;
  }

  /// Total footprint: resident heap bytes plus mapped file bytes. Use
  /// resident_bytes() when budgeting heap (mapped pages are reclaimable
  /// by the OS and must not count against a malloc budget).
  size_t memory_bytes() const { return resident_bytes() + mapped_bytes(); }

  /// Assembles a database viewing `storage`. Internal factory for the
  /// storage backends (DatabaseBuilder::Build, OpenMapped,
  /// DecomposeClasses); the spans must point into memory `storage`
  /// keeps alive and satisfy the CSR invariants (offsets.front() == 0,
  /// offsets.back() == items.size(), weights empty or one per
  /// transaction, frequencies sized num_items).
  static Database FromStorage(std::shared_ptr<const DatabaseStorage> storage,
                              std::span<const Item> items,
                              std::span<const size_t> offsets,
                              std::span<const Support> weights,
                              std::span<const Support> frequencies,
                              size_t num_items, Support total_weight);

 private:
  std::span<const Item> items_;
  std::span<const size_t> offsets_;
  std::span<const Support> weights_;  // empty => all 1
  std::span<const Support> frequencies_;
  size_t num_items_ = 0;
  Support total_weight_ = 0;
  std::shared_ptr<const DatabaseStorage> storage_;
};

/// Accumulates transactions and produces an immutable Database.
///
/// Items inside a transaction are de-duplicated; their stored order is
/// preserved as given (the layout library controls ordering).
class DatabaseBuilder {
 public:
  DatabaseBuilder() = default;

  /// Appends one transaction. Duplicate items within the transaction are
  /// removed (first occurrence wins). Empty transactions are kept: they
  /// contribute to the transaction count but to no support.
  void AddTransaction(std::span<const Item> items, Support weight = 1);

  /// Convenience overload.
  void AddTransaction(std::initializer_list<Item> items, Support weight = 1) {
    AddTransaction(std::span<const Item>(items.begin(), items.size()), weight);
  }

  /// Appends one transaction whose items the caller guarantees are
  /// already strictly increasing (sorted, duplicate-free), skipping the
  /// sort-based de-duplication of AddTransaction(). This is the hot path
  /// of parallel class projection: conditional transactions are prefixes
  /// of already rank-sorted unique transactions, so re-deriving the
  /// order per class would repeat work the layout pass did once.
  void AddSortedTransaction(std::span<const Item> items, Support weight = 1);

  /// Appends transactions [begin, end) of `db`, preserving stored item
  /// order and weights, as one range copy. Frequencies, num_items and
  /// the total weight count the copied rows only, so the result is
  /// identical to calling AddTransaction() per row (stored transactions
  /// are already de-duplicated) at O(entries) instead of
  /// O(entries log len). The version chain builds every version this
  /// way.
  void AddRows(const Database& db, Tid begin, Tid end);

  /// Makes room for `transactions` more rows holding `entries` items, so
  /// a build of known size allocates its arrays once, at that size.
  void Reserve(size_t transactions, size_t entries);

  /// Number of transactions added so far.
  size_t size() const { return offsets_.size() - 1; }

  /// Finalizes: computes item frequencies and moves the data into an
  /// owned storage backend. The builder is left empty and reusable.
  Database Build();

 private:
  /// Counts the items of items_[begin..end) into frequencies_ and bumps
  /// total_weight_, so Build() never re-walks the whole database.
  void CountAppended(size_t begin, Support weight);

  std::vector<Item> items_;
  std::vector<size_t> offsets_{0};
  std::vector<Support> weights_;
  std::vector<Support> frequencies_;  // maintained incrementally
  std::vector<Item> scratch_;
  size_t max_item_bound_ = 0;
  Support total_weight_ = 0;
  bool any_weighted_ = false;
};

}  // namespace fpm

#endif  // FPM_DATASET_DATABASE_H_
