// Eclat: vertical frequent itemset miner (§4.2).
//
// Each item(set) owns the set of transactions it occurs in; extending an
// itemset intersects two sets and counts the result. On dense data the
// sets are bit vectors, and ANDing and popcounting them is 98% of
// Eclat's runtime in the paper's profile. That path is computation
// bound, so the applicable patterns accelerate arithmetic rather than
// memory:
//
//   P1 lexicographic_order — clusters the 1s of frequent items at the
//      front of the vectors, which is what makes 0-escaping effective.
//   zero_escaping — per-vector conservative 1-ranges; intersection and
//      counting skip the all-zero prefix/suffix (§4.2's 0-escaping).
//   P8 popcount strategy — the baseline counts via a 16-bit lookup table
//      (indirect loads, not SIMDizable); the tuned variants count with
//      computation (SWAR, or AVX2 where the host has it).
//
// P2, the data structure adaptation the paper attributes to the
// literature, is not a toggle: each run picks its layout from the data
// (kEclatTidListFillInverse). Both layouts walk the same extension order
// depth first, so they emit the same sequence.

#ifndef FPM_ALGO_ECLAT_ECLAT_MINER_H_
#define FPM_ALGO_ECLAT_ECLAT_MINER_H_

#include <cstdint>
#include <string>

#include "fpm/algo/miner.h"
#include "fpm/bitvec/popcount.h"

namespace fpm {

class CancelToken;

/// P2: a run mines with sorted tid lists when its frequent columns'
/// fill, entries / (frequent items x total weight), is below
/// 1 / kEclatTidListFillInverse, and with bit vectors otherwise. The
/// constant sits where the two layouts' whole-kernel times cross on
/// sparse inputs (EXPERIMENTS.md §5), far below the 1/32 where their
/// footprints cross (4 bytes per entry against 1 bit per row).
inline constexpr uint64_t kEclatTidListFillInverse = 528;

/// Pattern toggles for the Eclat kernel.
///
/// Toggle names follow the shared noun-phrase convention (see
/// LcmOptions / DESIGN.md "Option naming").
struct EclatOptions {
  bool lexicographic_order = false;  ///< P1
  bool zero_escaping = false;        ///< 0-escaping via 1-ranges
  /// Baseline is the original's table lookup; kAuto engages SIMD (P8).
  /// 0-escaping and the popcount strategy only act on bit vectors.
  PopcountStrategy popcount = PopcountStrategy::kLut16;

  /// Cooperative cancellation, polled at every class-step frame. See
  /// LcmOptions::cancel for the contract. Null = never cancelled.
  const CancelToken* cancel = nullptr;

  /// Enables every pattern.
  static EclatOptions All() {
    EclatOptions o;
    o.lexicographic_order = true;
    o.zero_escaping = true;
    o.popcount = PopcountStrategy::kAuto;
    return o;
  }

  /// "+lex+esc+simd:<strategy>" style suffix (empty when all off).
  std::string Suffix() const;
};

/// Vertical depth-first miner. Not thread-safe.
class EclatMiner : public Miner {
 public:
  explicit EclatMiner(EclatOptions options = EclatOptions());

  std::string name() const override { return "eclat" + options_.Suffix(); }

  const EclatOptions& options() const { return options_; }

 protected:
  Result<MineStats> MineImpl(const Database& db, Support min_support,
                             ItemsetSink* sink) override;

 private:
  EclatOptions options_;
};

}  // namespace fpm

#endif  // FPM_ALGO_ECLAT_ECLAT_MINER_H_
