// Sink adapters of the parallel driver.

#ifndef FPM_PARALLEL_SINK_ADAPTERS_H_
#define FPM_PARALLEL_SINK_ADAPTERS_H_

#include <vector>

#include "fpm/algo/itemset_sink.h"
#include "fpm/dataset/types.h"

namespace fpm {

/// Kernels emit in the item-id space of the database they were given — a
/// conditional database whose ids are frequency ranks. This adapter maps
/// ranks back to raw item ids and appends the class's owner item, turning
/// a conditional itemset S into the global itemset S ∪ {owner}.
class ClassSink : public ItemsetSink {
 public:
  ClassSink(const std::vector<Item>& rank_to_item, Item owner_raw,
            ItemsetSink* target)
      : rank_to_item_(rank_to_item), owner_raw_(owner_raw), target_(target) {}

  void Emit(std::span<const Item> itemset, Support support) override {
    buffer_.clear();
    buffer_.reserve(itemset.size() + 1);
    for (Item rank : itemset) buffer_.push_back(rank_to_item_[rank]);
    buffer_.push_back(owner_raw_);
    target_->Emit(buffer_, support);
    ++emitted_;
  }

  uint64_t emitted() const { return emitted_; }

 private:
  const std::vector<Item>& rank_to_item_;
  Item owner_raw_;
  ItemsetSink* target_;
  std::vector<Item> buffer_;
  uint64_t emitted_ = 0;
};

}  // namespace fpm

#endif  // FPM_PARALLEL_SINK_ADAPTERS_H_
