// FP-tree stores (§4.3, Figure 7).
//
// Two interchangeable implementations of the augmented prefix tree:
//
//   PointerFpTree — the baseline: individually shaped 40-byte nodes with
//   parent / first-child / next-sibling / node-link pointers, allocated
//   from an arena in insertion order. Traversal is a dependent-load
//   chain: the memory-bound behaviour Figure 2 profiles.
//
//   CompactFpTree — pattern P2 (+P3/P4): structure-of-arrays nodes where
//   the item id is differentially encoded against the parent's item in a
//   single byte (escape map for the rare large deltas), cutting the
//   per-node footprint from 40 to ~13 bytes; an optional DFS re-layout
//   renumbers nodes so parent chains and node-link chains become
//   index-contiguous (the re-organization the paper's "Reorg" bars
//   measure); optional node-link jump pointers (P5) drive software
//   prefetch (P7) during the header-link walks.
//
// Both expose the same mining interface: AddPath / Finalize /
// ItemSupport / ForEachPath / SinglePath, so the FP-Growth recursion is
// written once (fpgrowth_miner.cc) and templated over the store.
//
// Items inside one tree are dense ranks (0 = most frequent); paths are
// inserted with items ascending, so item values strictly increase from
// root to leaf — the property differential encoding relies on.

#ifndef FPM_ALGO_FPGROWTH_FPTREE_H_
#define FPM_ALGO_FPGROWTH_FPTREE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fpm/common/arena.h"
#include "fpm/common/prefetch.h"
#include "fpm/dataset/types.h"

namespace fpm {

/// P5: a CompactFpTree jump pointer reaches this many node-link hops
/// ahead (built only with software_prefetch).
inline constexpr uint32_t kFpTreeJumpDistance = 4;

/// Shared pattern toggles for the tree stores.
struct FpTreeConfig {
  bool software_prefetch = false;  ///< P5 jump pointers + P7 prefetch
  bool dfs_relayout = false;       ///< P3/P4 (CompactFpTree only)
};

/// Baseline pointer-based FP-tree.
class PointerFpTree {
 public:
  struct Node {
    Node* parent;
    Node* first_child;
    Node* next_sibling;
    Node* node_link;
    Item item;
    Support count;
  };

  PointerFpTree(uint32_t item_bound, const FpTreeConfig& config);

  /// Inserts one path (items strictly ascending), adding `count` to every
  /// node on it.
  void AddPath(std::span<const Item> items, Support count);

  /// Must be called once after the last AddPath and before mining.
  void Finalize();

  /// Items present in the tree, ascending.
  const std::vector<Item>& items() const { return present_items_; }

  /// Total count over `item`'s node-link chain (its support here).
  Support ItemSupport(Item item) const;

  /// Invokes fn(path_items_ascending, count) for every node on `item`'s
  /// link chain; the span holds the node's proper ancestors (root
  /// excluded) and is valid only during the call.
  template <typename Fn>
  void ForEachPath(Item item, Fn&& fn) const {
    for (const Node* n = link_head_[item]; n != nullptr; n = n->node_link) {
      if (config_.software_prefetch) Prefetch(n->node_link);
      path_scratch_.clear();
      for (const Node* a = n->parent; a->parent != nullptr; a = a->parent) {
        path_scratch_.push_back(a->item);
      }
      // Ancestors were collected leaf->root (descending); present them
      // ascending.
      std::reverse(path_scratch_.begin(), path_scratch_.end());
      fn(std::span<const Item>(path_scratch_), n->count);
    }
  }

  /// True when the whole tree is a single chain; fills (item, count)
  /// pairs root->leaf.
  bool SinglePath(std::vector<std::pair<Item, Support>>* path) const;

  size_t num_nodes() const { return num_nodes_; }
  size_t memory_bytes() const {
    return arena_.bytes_reserved() + link_head_.size() * sizeof(Node*);
  }

 private:
  Node* NewNode(Node* parent, Item item);

  FpTreeConfig config_;
  Arena arena_;
  Node* root_;
  std::vector<Node*> link_head_;
  std::vector<Node*> link_tail_;
  std::vector<Node*> root_child_;  // direct child index under the root
  std::vector<Item> present_items_;
  size_t num_nodes_ = 0;
  mutable std::vector<Item> path_scratch_;
};

/// Compact diff-encoded SoA FP-tree (P2, optionally P3/P4 + P5).
class CompactFpTree {
 public:
  CompactFpTree(uint32_t item_bound, const FpTreeConfig& config);

  void AddPath(std::span<const Item> items, Support count);
  void Finalize();

  const std::vector<Item>& items() const { return present_items_; }
  Support ItemSupport(Item item) const;

  template <typename Fn>
  void ForEachPath(Item item, Fn&& fn) const {
    const uint32_t* parent = parent_.data();
    const uint8_t* diff = diff_.data();
    for (uint32_t n = link_head_[item]; n != kNone; n = link_next_[n]) {
      if (config_.software_prefetch) {
        // P5: jump pointer reaches kFpTreeJumpDistance chain hops
        // ahead; prefetch its hot SoA entries.
        const uint32_t j = jump_.empty() ? link_next_[n] : jump_[n];
        if (j != kNone) {
          Prefetch(&parent_[j]);
          Prefetch(&count_[j]);
        }
      }
      // Collect ancestor node ids leaf->root, then decode items
      // root->leaf (differential decoding needs the parent's item
      // first).
      node_scratch_.clear();
      for (uint32_t a = parent[n]; a != 0; a = parent[a]) {
        node_scratch_.push_back(a);
      }
      path_scratch_.clear();
      int64_t prev_item = -1;
      for (size_t i = node_scratch_.size(); i-- > 0;) {
        const uint32_t node = node_scratch_[i];
        const int64_t item_value =
            diff[node] == kEscape
                ? static_cast<int64_t>(escape_.at(node))
                : prev_item + diff[node];
        path_scratch_.push_back(static_cast<Item>(item_value));
        prev_item = item_value;
      }
      fn(std::span<const Item>(path_scratch_), count_[n]);
    }
  }

  bool SinglePath(std::vector<std::pair<Item, Support>>* path) const;

  size_t num_nodes() const { return parent_.size(); }
  size_t memory_bytes() const;

 private:
  static constexpr uint32_t kNone = ~static_cast<uint32_t>(0);
  static constexpr uint8_t kEscape = 0xff;

  uint32_t NewNode(uint32_t parent, Item item, int64_t parent_item);
  void RelayoutDfs();

  FpTreeConfig config_;
  // SoA node arrays; node 0 is the root.
  std::vector<uint32_t> parent_;
  std::vector<Support> count_;
  std::vector<uint8_t> diff_;
  std::vector<uint32_t> first_child_;
  std::vector<uint32_t> next_sibling_;
  std::vector<uint32_t> link_next_;
  std::vector<uint32_t> jump_;  // P5, built in Finalize when enabled
  std::unordered_map<uint32_t, Item> escape_;

  std::vector<uint32_t> link_head_;
  std::vector<uint32_t> root_child_;
  std::vector<Item> present_items_;
  mutable std::vector<Item> path_scratch_;
  mutable std::vector<uint32_t> node_scratch_;
};

}  // namespace fpm

#endif  // FPM_ALGO_FPGROWTH_FPTREE_H_
