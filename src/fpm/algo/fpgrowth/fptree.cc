#include "fpm/algo/fpgrowth/fptree.h"

#include <algorithm>

#include "fpm/common/logging.h"
#include "fpm/mem/prefetch_pointers.h"

namespace fpm {

// --------------------------- PointerFpTree ---------------------------

PointerFpTree::PointerFpTree(uint32_t item_bound, const FpTreeConfig& config)
    : config_(config),
      link_head_(item_bound, nullptr),
      link_tail_(item_bound, nullptr),
      root_child_(item_bound, nullptr) {
  root_ = NewNode(nullptr, kInvalidItem);
  --num_nodes_;  // the root is not a payload node
}

PointerFpTree::Node* PointerFpTree::NewNode(Node* parent, Item item) {
  Node* n = arena_.New<Node>();
  n->parent = parent;
  n->first_child = nullptr;
  n->next_sibling = nullptr;
  n->node_link = nullptr;
  n->item = item;
  n->count = 0;
  ++num_nodes_;
  return n;
}

void PointerFpTree::AddPath(std::span<const Item> items, Support count) {
  Node* cur = root_;
  for (size_t i = 0; i < items.size(); ++i) {
    const Item item = items[i];
    FPM_DCHECK(item < link_head_.size());
    Node* child = nullptr;
    if (cur == root_) {
      child = root_child_[item];
    } else {
      for (Node* c = cur->first_child; c != nullptr; c = c->next_sibling) {
        if (c->item == item) {
          child = c;
          break;
        }
      }
    }
    if (child == nullptr) {
      child = NewNode(cur, item);
      child->next_sibling = cur->first_child;
      cur->first_child = child;
      if (cur == root_) root_child_[item] = child;
      // Append to the item's node-link chain.
      if (link_tail_[item] == nullptr) {
        link_head_[item] = link_tail_[item] = child;
      } else {
        link_tail_[item]->node_link = child;
        link_tail_[item] = child;
      }
    }
    child->count += count;
    cur = child;
  }
}

void PointerFpTree::Finalize() {
  present_items_.clear();
  for (Item i = 0; i < link_head_.size(); ++i) {
    if (link_head_[i] != nullptr) present_items_.push_back(i);
  }
}

Support PointerFpTree::ItemSupport(Item item) const {
  Support total = 0;
  for (const Node* n = link_head_[item]; n != nullptr; n = n->node_link) {
    total += n->count;
  }
  return total;
}

bool PointerFpTree::SinglePath(
    std::vector<std::pair<Item, Support>>* path) const {
  path->clear();
  for (const Node* n = root_->first_child; n != nullptr;
       n = n->first_child) {
    if (n->next_sibling != nullptr) return false;
    path->emplace_back(n->item, n->count);
  }
  return true;
}

// --------------------------- CompactFpTree ---------------------------

CompactFpTree::CompactFpTree(uint32_t item_bound, const FpTreeConfig& config)
    : config_(config),
      link_head_(item_bound, kNone),
      root_child_(item_bound, kNone) {
  // Node 0: the root. Its stored fields are never interpreted.
  parent_.push_back(kNone);
  count_.push_back(0);
  diff_.push_back(0);
  first_child_.push_back(kNone);
  next_sibling_.push_back(kNone);
  link_next_.push_back(kNone);
}

uint32_t CompactFpTree::NewNode(uint32_t parent, Item item,
                                int64_t parent_item) {
  const uint32_t n = static_cast<uint32_t>(parent_.size());
  parent_.push_back(parent);
  count_.push_back(0);
  const int64_t delta = static_cast<int64_t>(item) - parent_item;
  FPM_DCHECK(delta >= 1);
  if (delta < kEscape) {
    diff_.push_back(static_cast<uint8_t>(delta));
  } else {
    diff_.push_back(kEscape);
    escape_.emplace(n, item);
  }
  first_child_.push_back(kNone);
  next_sibling_.push_back(kNone);
  link_next_.push_back(kNone);
  return n;
}

void CompactFpTree::AddPath(std::span<const Item> items, Support count) {
  uint32_t cur = 0;
  int64_t cur_item = -1;
  for (size_t i = 0; i < items.size(); ++i) {
    const Item item = items[i];
    FPM_DCHECK(item < link_head_.size());
    uint32_t child = kNone;
    if (cur == 0) {
      child = root_child_[item];
    } else {
      for (uint32_t c = first_child_[cur]; c != kNone;
           c = next_sibling_[c]) {
        const int64_t sibling_item =
            diff_[c] == kEscape ? static_cast<int64_t>(escape_.at(c))
                                : cur_item + diff_[c];
        if (sibling_item == static_cast<int64_t>(item)) {
          child = c;
          break;
        }
      }
    }
    if (child == kNone) {
      child = NewNode(cur, item, cur_item);
      next_sibling_[child] = first_child_[cur];
      first_child_[cur] = child;
      if (cur == 0) root_child_[item] = child;
      // Prepend to the link chain; Finalize rebuilds chains in node
      // order anyway.
      link_next_[child] = link_head_[item];
      link_head_[item] = child;
    }
    count_[child] += count;
    cur = child;
    cur_item = item;
  }
}

void CompactFpTree::RelayoutDfs() {
  const size_t n = parent_.size();
  // DFS preorder, children visited in first-child order so that a
  // node's leftmost spine becomes index-contiguous: upward walks then
  // touch neighbouring memory (the supernode effect of §3.3 in index
  // form).
  std::vector<uint32_t> order;  // new index -> old index
  order.reserve(n);
  std::vector<uint32_t> stack{0};
  while (!stack.empty()) {
    const uint32_t old = stack.back();
    stack.pop_back();
    order.push_back(old);
    // Push siblings reversed so the first child is processed first.
    std::vector<uint32_t> kids;
    for (uint32_t c = first_child_[old]; c != kNone; c = next_sibling_[c]) {
      kids.push_back(c);
    }
    for (size_t i = kids.size(); i-- > 0;) stack.push_back(kids[i]);
  }
  FPM_CHECK(order.size() == n) << "relayout visited " << order.size()
                               << " of " << n << " nodes";

  std::vector<uint32_t> old_to_new(n);
  for (uint32_t idx = 0; idx < n; ++idx) old_to_new[order[idx]] = idx;

  auto permute_u32 = [&](std::vector<uint32_t>* v, bool remap_values) {
    std::vector<uint32_t> out(n);
    for (uint32_t idx = 0; idx < n; ++idx) {
      uint32_t value = (*v)[order[idx]];
      if (remap_values && value != kNone) value = old_to_new[value];
      out[idx] = value;
    }
    *v = std::move(out);
  };
  permute_u32(&parent_, true);
  permute_u32(&first_child_, true);
  permute_u32(&next_sibling_, true);

  std::vector<Support> new_count(n);
  std::vector<uint8_t> new_diff(n);
  for (uint32_t idx = 0; idx < n; ++idx) {
    new_count[idx] = count_[order[idx]];
    new_diff[idx] = diff_[order[idx]];
  }
  count_ = std::move(new_count);
  diff_ = std::move(new_diff);

  std::unordered_map<uint32_t, Item> new_escape;
  new_escape.reserve(escape_.size());
  for (const auto& [old, item] : escape_) {
    new_escape.emplace(old_to_new[old], item);
  }
  escape_ = std::move(new_escape);

  for (auto& head : root_child_) {
    if (head != kNone) head = old_to_new[head];
  }
  // Link chains are rebuilt from scratch in Finalize.
}

void CompactFpTree::Finalize() {
  if (config_.dfs_relayout) RelayoutDfs();

  // Rebuild node-link chains in ascending node order (= DFS order after
  // relayout, insertion order otherwise). Requires decoding each node's
  // item; do it with one top-down pass (parents precede children in both
  // orders... not guaranteed without relayout, so decode via parent
  // items memoized in a scratch array).
  const size_t n = parent_.size();
  std::vector<Item> node_item(n, kInvalidItem);
  std::fill(link_head_.begin(), link_head_.end(), kNone);
  std::vector<uint32_t> link_tail(link_head_.size(), kNone);

  // Decode items: iterative resolution following parent chains.
  for (uint32_t v = 1; v < n; ++v) {
    if (node_item[v] != kInvalidItem) continue;
    // Walk up until a decoded ancestor (or root), then unwind.
    node_scratch_.clear();
    uint32_t u = v;
    while (u != 0 && node_item[u] == kInvalidItem) {
      node_scratch_.push_back(u);
      u = parent_[u];
    }
    int64_t prev =
        (u == 0) ? -1 : static_cast<int64_t>(node_item[u]);
    for (size_t i = node_scratch_.size(); i-- > 0;) {
      const uint32_t w = node_scratch_[i];
      const int64_t item = diff_[w] == kEscape
                               ? static_cast<int64_t>(escape_.at(w))
                               : prev + diff_[w];
      node_item[w] = static_cast<Item>(item);
      prev = item;
    }
  }

  for (uint32_t v = 1; v < n; ++v) {
    const Item item = node_item[v];
    link_next_[v] = kNone;
    if (link_tail[item] == kNone) {
      link_head_[item] = link_tail[item] = v;
    } else {
      link_next_[link_tail[item]] = v;
      link_tail[item] = v;
    }
  }

  present_items_.clear();
  for (Item i = 0; i < link_head_.size(); ++i) {
    if (link_head_[i] != kNone) present_items_.push_back(i);
  }

  // P5: jump pointers over the link chains.
  jump_.clear();
  if (config_.software_prefetch && n > 1) {
    std::vector<uint32_t> heads;
    heads.reserve(present_items_.size());
    for (Item i : present_items_) heads.push_back(link_head_[i]);
    jump_ = BuildJumpPointers(heads, link_next_, kFpTreeJumpDistance);
  }
}

Support CompactFpTree::ItemSupport(Item item) const {
  Support total = 0;
  for (uint32_t n = link_head_[item]; n != kNone; n = link_next_[n]) {
    total += count_[n];
  }
  return total;
}

bool CompactFpTree::SinglePath(
    std::vector<std::pair<Item, Support>>* path) const {
  path->clear();
  int64_t prev_item = -1;
  for (uint32_t n = first_child_[0]; n != kNone; n = first_child_[n]) {
    if (next_sibling_[n] != kNone) return false;
    const int64_t item = diff_[n] == kEscape
                             ? static_cast<int64_t>(escape_.at(n))
                             : prev_item + diff_[n];
    path->emplace_back(static_cast<Item>(item), count_[n]);
    prev_item = item;
  }
  return true;
}

size_t CompactFpTree::memory_bytes() const {
  return parent_.size() * (sizeof(uint32_t) * 4 + sizeof(Support) +
                           sizeof(uint8_t)) +
         jump_.size() * sizeof(uint32_t) +
         escape_.size() * (sizeof(uint32_t) + sizeof(Item)) * 2 +
         link_head_.size() * sizeof(uint32_t) * 2;
}

}  // namespace fpm
