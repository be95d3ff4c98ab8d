// Popcount strategies over word arrays (pattern P8 and its baseline).
//
// The original Eclat counts 1s through a 16-bit lookup table; the paper
// replaces the table's indirect loads with computation (SWAR), which
// vectorizes. We keep all variants so the benches can reproduce the
// comparison:
//   kLut16 — baseline table lookup (not SIMDizable; indirect loads)
//   kSwar  — branch-free bit arithmetic, scalar
//   kAvx2  — 256-bit nibble-shuffle popcount (requires AVX2)
//   kAuto  — AVX2 where the host has it, else SWAR

#ifndef FPM_BITVEC_POPCOUNT_H_
#define FPM_BITVEC_POPCOUNT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace fpm {

/// kAuto keeps the value 4, which parameterized test names print.
enum class PopcountStrategy {
  kLut16 = 0,
  kSwar = 1,
  kAvx2 = 2,
  kAuto = 4,
};

/// Stable display name ("lut16", "swar", ...).
const char* PopcountStrategyName(PopcountStrategy s);

/// True when the strategy can execute on this machine.
bool PopcountStrategyAvailable(PopcountStrategy s);

/// Resolves kAuto to the best available concrete strategy.
PopcountStrategy ResolvePopcountStrategy(PopcountStrategy s);

/// Number of set bits in words[0..n).
uint64_t CountOnes(const uint64_t* words, size_t n, PopcountStrategy s);

/// out[i] = a[i] & b[i] for i in [0, n); returns the popcount of `out`.
/// This fused kernel is where Eclat spends 98% of its time (§4.2).
uint64_t AndCount(const uint64_t* a, const uint64_t* b, uint64_t* out,
                  size_t n, PopcountStrategy s);

namespace internal {
// AVX2 implementations live in a separate -mavx2 TU.
uint64_t CountOnesAvx2(const uint64_t* words, size_t n);
uint64_t AndCountAvx2(const uint64_t* a, const uint64_t* b, uint64_t* out,
                      size_t n);
}  // namespace internal

}  // namespace fpm

#endif  // FPM_BITVEC_POPCOUNT_H_
