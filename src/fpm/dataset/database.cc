#include "fpm/dataset/database.h"

#include <algorithm>
#include <utility>

#include "fpm/common/logging.h"

namespace fpm {

namespace {

// Heap-vector backend: owns the CSR arrays a DatabaseBuilder produced.
class OwnedStorage final : public DatabaseStorage {
 public:
  OwnedStorage(std::vector<Item> items, std::vector<size_t> offsets,
               std::vector<Support> weights, std::vector<Support> frequencies)
      : items_(std::move(items)),
        offsets_(std::move(offsets)),
        weights_(std::move(weights)),
        frequencies_(std::move(frequencies)) {}

  StorageKind kind() const override { return StorageKind::kMemory; }

  size_t resident_bytes() const override {
    return items_.capacity() * sizeof(Item) +
           offsets_.capacity() * sizeof(size_t) +
           weights_.capacity() * sizeof(Support) +
           frequencies_.capacity() * sizeof(Support);
  }

  size_t mapped_bytes() const override { return 0; }

  std::span<const Item> items() const { return items_; }
  std::span<const size_t> offsets() const { return offsets_; }
  std::span<const Support> weights() const { return weights_; }
  std::span<const Support> frequencies() const { return frequencies_; }

 private:
  std::vector<Item> items_;
  std::vector<size_t> offsets_;
  std::vector<Support> weights_;
  std::vector<Support> frequencies_;
};

}  // namespace

const char* StorageKindName(StorageKind kind) {
  switch (kind) {
    case StorageKind::kMemory:
      return "memory";
    case StorageKind::kPacked:
      return "packed";
  }
  return "unknown";
}

Database Database::FromStorage(std::shared_ptr<const DatabaseStorage> storage,
                               std::span<const Item> items,
                               std::span<const size_t> offsets,
                               std::span<const Support> weights,
                               std::span<const Support> frequencies,
                               size_t num_items, Support total_weight) {
  Database db;
  db.items_ = items;
  db.offsets_ = offsets;
  db.weights_ = weights;
  db.frequencies_ = frequencies;
  db.num_items_ = num_items;
  db.total_weight_ = total_weight;
  db.storage_ = std::move(storage);
  return db;
}

void DatabaseBuilder::CountAppended(size_t begin, Support weight) {
  if (frequencies_.size() < max_item_bound_) {
    frequencies_.resize(max_item_bound_, 0);
  }
  for (size_t i = begin; i < items_.size(); ++i) {
    frequencies_[items_[i]] += weight;
  }
  total_weight_ += weight;
}

void DatabaseBuilder::AddTransaction(std::span<const Item> items,
                                     Support weight) {
  // De-duplicate while preserving first-occurrence order. Transactions
  // are short relative to the item universe, so sort a scratch copy to
  // detect duplicates, then emit in input order.
  const size_t begin = items_.size();
  scratch_.assign(items.begin(), items.end());
  std::sort(scratch_.begin(), scratch_.end());
  const bool has_dup =
      std::adjacent_find(scratch_.begin(), scratch_.end()) != scratch_.end();

  if (!has_dup) {
    items_.insert(items_.end(), items.begin(), items.end());
  } else {
    scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                   scratch_.end());
    // Emit in input order, keeping only the first occurrence of each item.
    std::vector<Item> remaining = scratch_;
    for (Item it : items) {
      auto pos = std::lower_bound(remaining.begin(), remaining.end(), it);
      if (pos != remaining.end() && *pos == it) {
        items_.push_back(it);
        remaining.erase(pos);
      }
    }
  }
  for (Item it : items) {
    if (static_cast<size_t>(it) + 1 > max_item_bound_) {
      max_item_bound_ = static_cast<size_t>(it) + 1;
    }
  }
  offsets_.push_back(items_.size());
  weights_.push_back(weight);
  if (weight != 1) any_weighted_ = true;
  CountAppended(begin, weight);
}

void DatabaseBuilder::AddSortedTransaction(std::span<const Item> items,
                                           Support weight) {
  const size_t begin = items_.size();
  items_.insert(items_.end(), items.begin(), items.end());
  if (!items.empty()) {
    FPM_DCHECK(std::is_sorted(items.begin(), items.end()) &&
               std::adjacent_find(items.begin(), items.end()) == items.end())
        << "AddSortedTransaction requires strictly increasing items";
    const size_t bound = static_cast<size_t>(items.back()) + 1;
    if (bound > max_item_bound_) max_item_bound_ = bound;
  }
  offsets_.push_back(items_.size());
  weights_.push_back(weight);
  if (weight != 1) any_weighted_ = true;
  CountAppended(begin, weight);
}

void DatabaseBuilder::AddRows(const Database& db, Tid begin, Tid end) {
  if (begin == end) return;
  const std::span<const size_t> src_offsets = db.offsets();
  const size_t first = src_offsets[begin];
  const std::span<const Item> rows =
      db.items().subspan(first, src_offsets[end] - first);
  const size_t base = items_.size();
  items_.insert(items_.end(), rows.begin(), rows.end());
  size_t bound = max_item_bound_;
  for (Item it : rows) bound = std::max(bound, static_cast<size_t>(it) + 1);
  if (frequencies_.size() < bound) {
    // Grown to exactly the bound: this runs once per range, not once
    // per row as in AddTransaction, so it needs no doubling.
    frequencies_.reserve(bound);
    frequencies_.resize(bound, 0);
  }
  max_item_bound_ = bound;
  for (Tid t = begin; t < end; ++t) {
    const Support weight = db.weight(t);
    for (Item it : db.transaction(t)) frequencies_[it] += weight;
    offsets_.push_back(base + src_offsets[t + 1] - first);
    weights_.push_back(weight);
    if (weight != 1) any_weighted_ = true;
    total_weight_ += weight;
  }
}

void DatabaseBuilder::Reserve(size_t transactions, size_t entries) {
  items_.reserve(items_.size() + entries);
  offsets_.reserve(offsets_.size() + transactions);
  weights_.reserve(weights_.size() + transactions);
}

Database DatabaseBuilder::Build() {
  const size_t num_items = max_item_bound_;
  const Support total_weight = total_weight_;
  frequencies_.resize(max_item_bound_, 0);
  if (!any_weighted_) weights_ = std::vector<Support>();  // all 1: no buffer

  auto storage = std::make_shared<OwnedStorage>(
      std::move(items_), std::move(offsets_), std::move(weights_),
      std::move(frequencies_));

  // Reset to a clean reusable state (members are moved-from).
  items_.clear();
  offsets_.assign(1, 0);
  weights_.clear();
  frequencies_.clear();
  max_item_bound_ = 0;
  total_weight_ = 0;
  any_weighted_ = false;

  const OwnedStorage& s = *storage;
  return Database::FromStorage(std::move(storage), s.items(), s.offsets(),
                               s.weights(), s.frequencies(), num_items,
                               total_weight);
}

}  // namespace fpm
