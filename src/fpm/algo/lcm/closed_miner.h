// Native closed-itemset miner in the style of LCM ver.2 (Uno et al.,
// FIMI'04 — the paper's [32]): depth-first enumeration of closed sets
// via prefix-preserving closure (ppc) extensions, never materializing
// the (possibly exponentially larger) full frequent listing the
// post-filter in algo/postprocess.h requires.
//
// Sketch: the closure clo(P) is the set of items present in every
// transaction containing P. Starting from clo(∅), each closed set P
// with core item c is extended by candidate items i > c (frequency-rank
// order): Q = clo(P ∪ {i}) is accepted iff its members below i match
// P's (the ppc test), which guarantees every closed set is generated
// exactly once, from exactly one parent. Q's database keeps only the
// items frequent in it: an item below min_support there can neither
// join a descendant's closure nor fail a descendant's ppc test.

#ifndef FPM_ALGO_LCM_CLOSED_MINER_H_
#define FPM_ALGO_LCM_CLOSED_MINER_H_

#include <string>

#include "fpm/algo/miner.h"

namespace fpm {

class CancelToken;

/// Emits every *closed* frequent itemset exactly once (via the common
/// Miner interface; supports are exact weighted supports).
///
/// Contract difference from the other miners: the output is the closed
/// subset of the frequent sets, i.e. exactly
/// FilterClosed(all frequent itemsets).
class LcmClosedMiner : public Miner {
 public:
  /// `cancel` is polled once per recursion frame; a cancelled run stops
  /// descending and Mine() returns the token's status. Null = never
  /// cancelled. The token must outlive the run.
  explicit LcmClosedMiner(const CancelToken* cancel = nullptr)
      : cancel_(cancel) {}

  std::string name() const override { return "lcm-closed"; }

 protected:
  Result<MineStats> MineImpl(const Database& db, Support min_support,
                             ItemsetSink* sink) override;

 private:
  const CancelToken* cancel_;
};

}  // namespace fpm

#endif  // FPM_ALGO_LCM_CLOSED_MINER_H_
