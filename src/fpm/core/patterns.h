// The ALSO tuning-pattern registry: the paper's §3 catalogue (P1..P8)
// with the benefit matrix of Table 2, the kernel characteristics of
// Table 3, and the applicability matrix of Table 4, all queryable.

#ifndef FPM_CORE_PATTERNS_H_
#define FPM_CORE_PATTERNS_H_

#include <cstdint>
#include <span>
#include <string>

#include "fpm/common/status.h"

namespace fpm {

/// The eight ALSO tuning patterns of §3.
enum class Pattern : uint8_t {
  kLexicographicOrdering = 0,    ///< P1 (§3.2)
  kDataStructureAdaptation = 1,  ///< P2 (§3.3)
  kAggregation = 2,              ///< P3 (§3.3)
  kCompaction = 3,               ///< P4 (§3.3)
  kPrefetchPointers = 4,         ///< P5 (§3.3)
  kTiling = 5,                   ///< P6 / P6.1 (§3.4)
  kSoftwarePrefetch = 6,         ///< P7 / P7.1 (§3.4)
  kSimdization = 7,              ///< P8 (§3.5)
};

inline constexpr int kNumPatterns = 8;

/// Registry entry: identity plus Table 2's benefit columns.
struct PatternInfo {
  Pattern pattern;
  const char* id;        ///< "P1".."P8"
  const char* name;      ///< "lexicographic ordering", ...
  const char* category;  ///< "database layout" / "data structures" / ...
  // Table 2 columns.
  bool spatial_locality;
  bool temporal_locality;
  bool memory_latency;
  bool computation;
};

/// All eight entries, in P1..P8 order.
std::span<const PatternInfo> AllPatterns();

/// Registry entry for one pattern.
const PatternInfo& GetPatternInfo(Pattern p);

/// The mining kernels the library implements.
enum class Algorithm {
  kLcm,
  kEclat,
  kFpGrowth,
  kApriori,     // completeness baseline (not in the paper's evaluation)
  kHMine,       // hyper-structure miner (the paper's reference [25])
  kBruteForce,  // test oracle
};

/// Stable lowercase name ("lcm", "eclat", ...).
const char* AlgorithmName(Algorithm a);

/// Parses an algorithm name (case-insensitive).
Result<Algorithm> ParseAlgorithm(const std::string& name);

/// Table 3: kernel characteristics.
struct AlgorithmInfo {
  Algorithm algorithm;
  const char* database_type;  ///< "horizontal" / "vertical"
  const char* data_structure; ///< "array" / "bit vector" / "tree" / ...
  const char* bound;          ///< "memory" / "computation"
};

const AlgorithmInfo& GetAlgorithmInfo(Algorithm a);

/// A set of enabled patterns.
class PatternSet {
 public:
  constexpr PatternSet() = default;

  static constexpr PatternSet None() { return PatternSet(); }
  static PatternSet All();

  /// The patterns the case studies apply to `a` (Table 4's check marks).
  /// Apriori/brute-force get the empty set.
  static PatternSet ApplicableTo(Algorithm a);

  /// Parses a comma-separated list of pattern ids or names:
  /// "P1,P8", "lex,simd", "all", "none".
  static Result<PatternSet> Parse(const std::string& text);

  PatternSet With(Pattern p) const {
    PatternSet s = *this;
    s.bits_ |= Bit(p);
    return s;
  }
  PatternSet Without(Pattern p) const {
    PatternSet s = *this;
    s.bits_ &= static_cast<uint8_t>(~Bit(p));
    return s;
  }
  bool Contains(Pattern p) const { return (bits_ & Bit(p)) != 0; }
  bool empty() const { return bits_ == 0; }

  /// Raw bit mask — a stable scalar for hashing / cache keys.
  uint8_t bits() const { return bits_; }

  PatternSet Intersect(PatternSet other) const {
    PatternSet s;
    s.bits_ = bits_ & other.bits_;
    return s;
  }
  PatternSet Union(PatternSet other) const {
    PatternSet s;
    s.bits_ = bits_ | other.bits_;
    return s;
  }

  /// "P1+P7" style rendering; "none" when empty.
  std::string ToString() const;

  bool operator==(const PatternSet&) const = default;

 private:
  static constexpr uint8_t Bit(Pattern p) {
    return static_cast<uint8_t>(1u << static_cast<uint8_t>(p));
  }
  uint8_t bits_ = 0;
};

}  // namespace fpm

#endif  // FPM_CORE_PATTERNS_H_
