// FP-Growth frequent itemset miner (Han, Pei & Yin, SIGMOD'00) — §4.3.
//
// Builds an FP-tree over the frequency-ranked database, then mines it
// bottom-up: for each item (least frequent first) it walks the item's
// node-link chain, collects the conditional pattern base from the
// upward paths, builds a conditional FP-tree and recurses. Single-path
// (sub)trees short-circuit into direct subset enumeration.
//
// Tuning patterns:
//   P1 lexicographic_order — sort transactions lexicographically before
//      insertion; consecutive transactions then share long prefixes, so
//      insertion walks cached nodes and related nodes are allocated
//      adjacently.
//   P2 node_compaction       — CompactFpTree (diff-encoded SoA nodes).
//   P3/P4 dfs_relayout     — DFS re-layout of the compact tree (path
//      locality; implies node_compaction).
//   P5+P7 software_prefetch — node-link jump pointers + prefetch during
//      chain walks (plain next-link prefetch on the pointer tree).

#ifndef FPM_ALGO_FPGROWTH_FPGROWTH_MINER_H_
#define FPM_ALGO_FPGROWTH_FPGROWTH_MINER_H_

#include <string>

#include "fpm/algo/miner.h"

namespace fpm {

class CancelToken;

/// Pattern toggles for the FP-Growth kernel.
///
/// Toggle names follow the shared noun-phrase convention (see
/// LcmOptions / DESIGN.md "Option naming").
struct FpGrowthOptions {
  bool lexicographic_order = false;  ///< P1
  bool node_compaction = false;      ///< P2
  bool dfs_relayout = false;         ///< P3/P4 (implies node_compaction)
  bool software_prefetch = false;    ///< P5 + P7

  /// Cooperative cancellation, polled at tree-build batches and at every
  /// conditional-tree frame. See LcmOptions::cancel for the contract.
  /// Null = never cancelled.
  const CancelToken* cancel = nullptr;

  static FpGrowthOptions All() {
    FpGrowthOptions o;
    o.lexicographic_order = true;
    o.node_compaction = true;
    o.dfs_relayout = true;
    o.software_prefetch = true;
    return o;
  }

  /// "+lex+cmp+dfs+pref" style suffix (empty when all off).
  std::string Suffix() const;
};

/// FP-tree miner. Not thread-safe.
class FpGrowthMiner : public Miner {
 public:
  explicit FpGrowthMiner(FpGrowthOptions options = FpGrowthOptions());

  std::string name() const override {
    return "fpgrowth" + options_.Suffix();
  }

  const FpGrowthOptions& options() const { return options_; }

 protected:
  Result<MineStats> MineImpl(const Database& db, Support min_support,
                             ItemsetSink* sink) override;

 private:
  FpGrowthOptions options_;
};

}  // namespace fpm

#endif  // FPM_ALGO_FPGROWTH_FPGROWTH_MINER_H_
