// LCM-style array-based frequent itemset miner (§4.1).
//
// The kernel mirrors LCM ver.2's structure for frequent-itemset mining:
// a horizontal sparse array database; per-level occurrence deliver
// (CalcFreq) that counts item frequencies and builds the item-major
// occurrence array; duplicate-transaction merging (RmDupTrans) via
// bucket hashing with per-bucket chains; and depth-first projection onto
// conditional databases.
//
// Tuning patterns (each an independent toggle, all output-neutral):
//   P1  lexicographic_order — sort the initial transactions
//       lexicographically over the frequency-ranked alphabet.
//   P3  bucket_aggregation   — RmDupTrans bucket chains become supernode
//       (cache-line) lists instead of one-node-per-link chains.
//   P4  counter_compaction    — frequency counters live in one contiguous
//       array instead of inside the 32-byte occurrence column headers.
//   P6.1 tiling             — top-level projections process the
//       occurrence array in L1-sized transaction tiles, batched over
//       items (see lcm_miner.cc for the batching memory bound).
//   P7.1 wavefront_prefetch — occurrence walks prefetch transaction
//       headers 8 and payloads 4 occurrence entries ahead.

#ifndef FPM_ALGO_LCM_LCM_MINER_H_
#define FPM_ALGO_LCM_LCM_MINER_H_

#include <string>
#include <vector>

#include "fpm/algo/miner.h"

namespace fpm {

class CancelToken;

/// Pattern toggles and the tile size for the LCM kernel.
///
/// Naming convention (shared by EclatOptions/FpGrowthOptions): each
/// boolean toggle is a noun phrase naming the optimization it enables
/// (bucket_aggregation, counter_compaction, tiling, ...), never an
/// imperative verb form. See DESIGN.md "Option naming".
struct LcmOptions {
  bool lexicographic_order = false;  ///< P1
  bool bucket_aggregation = false;   ///< P3
  bool counter_compaction = false;   ///< P4
  bool tiling = false;               ///< P6.1
  bool wavefront_prefetch = false;   ///< P7.1

  /// Tile capacity in database *entries* (items). 0 = auto: sized so one
  /// tile's transaction data fits in half the L1 data cache.
  uint32_t tile_entries = 0;

  /// Cooperative cancellation: polled at every frame boundary (level
  /// entry, per-item projection). A cancelled run stops descending and
  /// Mine() returns the token's status. The token must outlive the run.
  /// Null = never cancelled.
  const CancelToken* cancel = nullptr;

  /// Enables every pattern (the tile size keeps its default).
  static LcmOptions All() {
    LcmOptions o;
    o.lexicographic_order = true;
    o.bucket_aggregation = true;
    o.counter_compaction = true;
    o.tiling = true;
    o.wavefront_prefetch = true;
    return o;
  }

  /// "+lex+agg+cmp+tile+wave" style suffix (empty when all off).
  std::string Suffix() const;
};

/// Array-based depth-first miner. Not thread-safe; use one instance per
/// thread.
class LcmMiner : public Miner {
 public:
  explicit LcmMiner(LcmOptions options = LcmOptions());

  std::string name() const override { return "lcm" + options_.Suffix(); }

  /// LCM's closed execution path is the ppc-extension kernel
  /// (fpm/algo/lcm/closed_miner.h), not frequent-listing filtering.
  std::unique_ptr<Miner> NativeClosedMiner() const override;

  const LcmOptions& options() const { return options_; }

 protected:
  Result<MineStats> MineImpl(const Database& db, Support min_support,
                             ItemsetSink* sink) override;

 private:
  struct Impl;
  LcmOptions options_;
};

}  // namespace fpm

#endif  // FPM_ALGO_LCM_LCM_MINER_H_
