// Prefix trie over a fixed candidate set, for batch support counting:
// CountTransaction adds a transaction's weight to every candidate that
// is a subset of it. The Apriori level loop drives a trie directly; the
// service's cache reseed over a version delta goes through
// CountCandidates, which validates its candidates first.

#ifndef FPM_ALGO_CANDIDATE_TRIE_H_
#define FPM_ALGO_CANDIDATE_TRIE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "fpm/common/status.h"
#include "fpm/dataset/database.h"
#include "fpm/dataset/types.h"

namespace fpm {

/// Immutable after construction; candidates may have mixed sizes.
class CandidateTrie {
 public:
  CandidateTrie() = default;

  /// Inserts a candidate (items sorted ascending, non-empty, no
  /// duplicates within the set) under the given index. Indices must be
  /// unique; counting accumulates into counts[index].
  void Insert(std::span<const Item> candidate, uint32_t index);

  /// Insert() that tolerates a candidate already present: returns the
  /// index the candidate is stored under — `index` when it is new, the
  /// earlier index when it is a duplicate (which is then not inserted).
  uint32_t InsertOrFind(std::span<const Item> candidate, uint32_t index);

  /// Adds `weight` to counts[i] for every candidate i ⊆ tx.
  /// `tx` must be sorted ascending without duplicates.
  void CountTransaction(std::span<const Item> tx, Support weight,
                        std::vector<Support>* counts) const;

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    // Sorted parallel arrays of edge labels and child node ids.
    std::vector<Item> labels;
    std::vector<uint32_t> children;
    uint32_t candidate = kNoCandidate;
  };
  static constexpr uint32_t kNoCandidate = ~0u;

  void Walk(uint32_t node_id, std::span<const Item> tx, Support weight,
            std::vector<Support>* counts) const;

  std::vector<Node> nodes_{1};  // node 0 = root
};

/// Exact supports of `candidates` over every transaction of `db`, in
/// candidate order. Candidates need not be sorted; each is sorted
/// before insertion. An empty candidate, one that repeats an item, or
/// one equal as a set to an earlier candidate is InvalidArgument naming
/// its index.
Result<std::vector<Support>> CountCandidates(
    const Database& db, std::span<const Itemset> candidates);

}  // namespace fpm

#endif  // FPM_ALGO_CANDIDATE_TRIE_H_
