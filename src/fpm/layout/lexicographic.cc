#include "fpm/layout/lexicographic.h"

#include <algorithm>
#include <numeric>

namespace fpm {

LexicographicResult LexicographicOrder(const Database& db) {
  ItemOrder order = ItemOrder::ByDecreasingFrequency(db);
  const Database ranked = RemapItems(db, order);
  std::vector<Tid> perm(ranked.num_transactions());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&ranked](Tid a, Tid b) {
    const auto ta = ranked.transaction(a);
    const auto tb = ranked.transaction(b);
    return std::lexicographical_compare(ta.begin(), ta.end(), tb.begin(),
                                        tb.end());
  });
  DatabaseBuilder builder;
  for (Tid t : perm) {
    builder.AddTransaction(ranked.transaction(t), ranked.weight(t));
  }
  LexicographicResult result;
  result.database = builder.Build();
  result.item_order = std::move(order);
  result.tid_permutation = std::move(perm);
  return result;
}

}  // namespace fpm
