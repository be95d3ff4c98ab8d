// FNV-1a 64-bit (Fowler/Noll/Vo), the library's one hash: dataset
// content digests, version-chain digests, hash-ring points and (through
// ItemsetHash in dataset/types.h) itemset buckets all use these
// constants.

#ifndef FPM_COMMON_HASH_H_
#define FPM_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace fpm {

/// The standard FNV-1a-64 offset basis (in its usual hex spelling) and
/// prime.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ull;

/// One FNV-1a step: xors `value` into `h`, then multiplies by the prime.
/// The byte-wise hash feeds one byte per step, ItemsetHash one item.
constexpr uint64_t Fnv1aStep(uint64_t h, uint64_t value) {
  return (h ^ value) * kFnv1aPrime;
}

/// Byte-wise FNV-1a-64 of `bytes`, continuing from `h`. From the default
/// offset basis this is the standard hash; passing a previous result
/// hashes the concatenation.
constexpr uint64_t Fnv1a64(std::string_view bytes,
                           uint64_t h = kFnv1aOffsetBasis) {
  for (char c : bytes) h = Fnv1aStep(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace fpm

#endif  // FPM_COMMON_HASH_H_
