#include "fpm/bitvec/tidlist.h"

#include <algorithm>

namespace fpm {

TidListDatabase TidListDatabase::FromDatabase(const Database& db,
                                              size_t item_bound) {
  TidListDatabase v;
  const size_t num_items = std::min(item_bound, db.num_items());
  std::vector<size_t> counts(num_items, 0);
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    for (Item it : db.transaction(t)) {
      if (it < num_items) ++counts[it];
    }
  }
  v.offsets_.resize(num_items + 1);
  v.offsets_[0] = 0;
  for (size_t i = 0; i < num_items; ++i) {
    v.offsets_[i + 1] = v.offsets_[i] + counts[i];
  }
  v.tids_.resize(v.offsets_[num_items]);
  std::vector<size_t> cursor(v.offsets_.begin(), v.offsets_.end() - 1);
  v.weights_.resize(db.num_transactions());
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    v.weights_[t] = db.weight(t);
    for (Item it : db.transaction(t)) {
      if (it < num_items) v.tids_[cursor[it]++] = t;
    }
  }
  return v;
}

size_t IntersectTidLists(std::span<const Tid> a, std::span<const Tid> b,
                         const Support* weights, Tid* out,
                         Support* support) {
  size_t i = 0, j = 0, n = 0;
  Support total = 0;
  while (i < a.size() && j < b.size()) {
    const Tid ta = a[i];
    const Tid tb = b[j];
    if (ta == tb) {
      out[n++] = ta;
      total += weights[ta];
      ++i;
      ++j;
    } else if (ta < tb) {
      ++i;
    } else {
      ++j;
    }
  }
  *support = total;
  return n;
}

}  // namespace fpm
