// Locality metrics for database layouts: the oracle the P1 tests use.
//
// §3.2 of the paper argues lexicographic ordering "will tend to reduce
// the total number of discontinuities, and especially reduce
// discontinuities for frequent items". These metrics make that claim
// measurable: a *discontinuity* of item i is a maximal run boundary in
// the sequence of transactions containing i (in stored order).

#ifndef FPM_TESTS_TESTING_LOCALITY_METRICS_H_
#define FPM_TESTS_TESTING_LOCALITY_METRICS_H_

#include <cstdint>
#include <vector>

#include "fpm/dataset/database.h"

namespace fpm::testutil {

/// For each item, the number of maximal contiguous runs of transactions
/// containing it. 1 = perfectly contiguous; higher = more scattered.
/// Items with zero occurrences report 0.
inline std::vector<uint32_t> ItemRunCounts(const Database& db) {
  std::vector<uint32_t> runs(db.num_items(), 0);
  // last_seen[i] == most recent transaction containing i, or kNone.
  constexpr Tid kNone = ~static_cast<Tid>(0);
  std::vector<Tid> last_seen(db.num_items(), kNone);
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    for (Item it : db.transaction(t)) {
      if (last_seen[it] == kNone || last_seen[it] + 1 != t) ++runs[it];
      last_seen[it] = t;
    }
  }
  return runs;
}

/// Sum of (run count - 1) over all occurring items: the total number of
/// discontinuities a full per-item column sweep encounters.
inline uint64_t TotalDiscontinuities(const Database& db) {
  uint64_t total = 0;
  for (uint32_t r : ItemRunCounts(db)) {
    if (r > 0) total += r - 1;
  }
  return total;
}

/// Discontinuities weighted by item frequency — approximates how often a
/// column walk actually pays for a discontinuity. Frequent items
/// dominate, matching the paper's emphasis.
inline double FrequencyWeightedDiscontinuities(const Database& db) {
  const std::vector<uint32_t> runs = ItemRunCounts(db);
  const auto& freq = db.item_frequencies();
  double total = 0.0;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i] > 0) total += static_cast<double>(runs[i] - 1) * freq[i];
  }
  return total;
}

}  // namespace fpm::testutil

#endif  // FPM_TESTS_TESTING_LOCALITY_METRICS_H_
