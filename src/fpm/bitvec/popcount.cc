#include "fpm/bitvec/popcount.h"

#include <array>

#include "fpm/common/bits.h"
#include "fpm/common/logging.h"

namespace fpm {
namespace {

// 16-bit popcount lookup table, built once. This mirrors the original
// Eclat implementation's counting scheme: four dependent indirect loads
// per 64-bit word.
const uint8_t* Lut16() {
  static const std::array<uint8_t, 65536> table = [] {
    std::array<uint8_t, 65536> t{};
    for (uint32_t v = 0; v < 65536; ++v) {
      t[v] = static_cast<uint8_t>(PopCount64Swar(v));
    }
    return t;
  }();
  return table.data();
}

inline uint64_t CountWordLut(const uint8_t* lut, uint64_t w) {
  return static_cast<uint64_t>(lut[w & 0xffff]) + lut[(w >> 16) & 0xffff] +
         lut[(w >> 32) & 0xffff] + lut[(w >> 48) & 0xffff];
}

uint64_t CountOnesLut16(const uint64_t* words, size_t n) {
  const uint8_t* lut = Lut16();
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += CountWordLut(lut, words[i]);
  return total;
}

uint64_t CountOnesSwar(const uint64_t* words, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(PopCount64Swar(words[i]));
  }
  return total;
}

bool HaveAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

const char* PopcountStrategyName(PopcountStrategy s) {
  switch (s) {
    case PopcountStrategy::kLut16:
      return "lut16";
    case PopcountStrategy::kSwar:
      return "swar";
    case PopcountStrategy::kAvx2:
      return "avx2";
    case PopcountStrategy::kAuto:
      return "auto";
  }
  return "?";
}

bool PopcountStrategyAvailable(PopcountStrategy s) {
  if (s == PopcountStrategy::kAvx2) return HaveAvx2();
  return true;
}

PopcountStrategy ResolvePopcountStrategy(PopcountStrategy s) {
  if (s != PopcountStrategy::kAuto) return s;
  return HaveAvx2() ? PopcountStrategy::kAvx2 : PopcountStrategy::kSwar;
}

uint64_t CountOnes(const uint64_t* words, size_t n, PopcountStrategy s) {
  switch (ResolvePopcountStrategy(s)) {
    case PopcountStrategy::kLut16:
      return CountOnesLut16(words, n);
    case PopcountStrategy::kSwar:
      return CountOnesSwar(words, n);
    case PopcountStrategy::kAvx2:
      FPM_CHECK(HaveAvx2()) << "AVX2 popcount requested without AVX2";
      return internal::CountOnesAvx2(words, n);
    case PopcountStrategy::kAuto:
      break;  // unreachable after resolution
  }
  FPM_CHECK(false) << "unresolved popcount strategy";
  return 0;
}

uint64_t AndCount(const uint64_t* a, const uint64_t* b, uint64_t* out,
                  size_t n, PopcountStrategy s) {
  switch (ResolvePopcountStrategy(s)) {
    case PopcountStrategy::kLut16: {
      const uint8_t* lut = Lut16();
      uint64_t total = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t w = a[i] & b[i];
        out[i] = w;
        total += CountWordLut(lut, w);
      }
      return total;
    }
    case PopcountStrategy::kSwar: {
      uint64_t total = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t w = a[i] & b[i];
        out[i] = w;
        total += static_cast<uint64_t>(PopCount64Swar(w));
      }
      return total;
    }
    case PopcountStrategy::kAvx2:
      FPM_CHECK(HaveAvx2()) << "AVX2 AndCount requested without AVX2";
      return internal::AndCountAvx2(a, b, out, n);
    case PopcountStrategy::kAuto:
      break;
  }
  FPM_CHECK(false) << "unresolved popcount strategy";
  return 0;
}

}  // namespace fpm
