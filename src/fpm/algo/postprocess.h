// Closed and maximal itemset extraction (the problem family of the
// paper's LCM kernel: "LCM ver.2: efficient mining algorithms for
// frequent/closed/maximal itemsets").
//
// Definitions over the frequent-set output F:
//   closed:  no proper superset has the same support;
//   maximal: no proper superset is frequent.
//
// By support anti-monotonicity it suffices to examine supersets with
// exactly one extra item, so both filters run in O(|F| * avg_size) hash
// operations: every (size k+1)-set marks its k-subsets.

#ifndef FPM_ALGO_POSTPROCESS_H_
#define FPM_ALGO_POSTPROCESS_H_

#include <vector>

#include "fpm/algo/itemset_sink.h"

namespace fpm {

/// Filters a complete frequent-set listing down to the closed sets.
/// `all_frequent` entries must be canonical (items sorted ascending) and
/// complete (every frequent itemset present, exact supports) — i.e. a
/// Canonicalize()d CollectingSink result.
std::vector<CollectingSink::Entry> FilterClosed(
    const std::vector<CollectingSink::Entry>& all_frequent);

/// Filters a complete frequent-set listing down to the maximal sets.
std::vector<CollectingSink::Entry> FilterMaximal(
    const std::vector<CollectingSink::Entry>& all_frequent);

/// Extracts the maximal sets from a *closed*-set listing (e.g. the
/// output of LcmClosedMiner): every maximal frequent itemset is closed,
/// and a closed set is maximal iff no other closed set strictly
/// contains it. Unlike FilterMaximal this must consider supersets of
/// any size, so it uses an inverted index on each set's rarest item.
std::vector<CollectingSink::Entry> FilterMaximalFromClosed(
    const std::vector<CollectingSink::Entry>& closed);

}  // namespace fpm

#endif  // FPM_ALGO_POSTPROCESS_H_
