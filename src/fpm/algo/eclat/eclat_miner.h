// Eclat: vertical bit-matrix frequent itemset miner (§4.2).
//
// Each item(set) owns a dense bit vector over transactions; extending an
// itemset ANDs two vectors and popcounts the result — 98% of Eclat's
// runtime in the paper's profile. The kernel is computation bound, so
// the applicable patterns accelerate arithmetic rather than memory:
//
//   P1 lexicographic_order — clusters the 1s of frequent items at the
//      front of the vectors, which is what makes 0-escaping effective.
//   zero_escaping — per-vector conservative 1-ranges; intersection and
//      counting skip the all-zero prefix/suffix (§4.2's 0-escaping).
//   P8 popcount strategy — the baseline counts via a 16-bit lookup table
//      (indirect loads, not SIMDizable); the tuned variants count with
//      computation (SWAR / hardware popcount / AVX2).

#ifndef FPM_ALGO_ECLAT_ECLAT_MINER_H_
#define FPM_ALGO_ECLAT_ECLAT_MINER_H_

#include <string>

#include "fpm/algo/miner.h"
#include "fpm/bitvec/popcount.h"

namespace fpm {

class CancelToken;

/// Vertical representation choice — the data structure adaptation (P2)
/// the paper notes has been "proposed in the literature" for Eclat:
/// dense bit vectors win on dense data, sparse tid lists on sparse data.
enum class EclatRepresentation {
  kBitVector,  ///< dense bit matrix (the paper's studied variant)
  kTidList,    ///< sorted transaction-id lists (sparse)
  kDiffset,    ///< dEclat: tid lists at level 1, diffsets below
               ///< (Zaki & Gouda, the paper's reference [33])
  kAuto,       ///< pick by measured density of the frequent columns
};

/// Stable display name ("bitvector", "tidlist", "auto").
const char* EclatRepresentationName(EclatRepresentation r);

/// Pattern toggles and knobs for the Eclat kernel.
///
/// Toggle names follow the shared noun-phrase convention (see
/// LcmOptions / DESIGN.md "Option naming").
struct EclatOptions {
  bool lexicographic_order = false;  ///< P1
  bool zero_escaping = false;        ///< 0-escaping via 1-ranges
  /// Baseline is the original's table lookup; kAuto engages SIMD (P8).
  PopcountStrategy popcount = PopcountStrategy::kLut16;
  /// P2: vertical representation. The paper's evaluation fixes the bit
  /// vector; kAuto/kTidList are the literature-proposed adaptation.
  /// 0-escaping and the popcount strategy only apply to bit vectors.
  EclatRepresentation representation = EclatRepresentation::kBitVector;

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

/// Vertical bit-vector depth-first miner. Not thread-safe.
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
