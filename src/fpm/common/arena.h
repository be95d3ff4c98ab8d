// Bump-pointer arena allocator.
//
// Frequent pattern miners allocate enormous numbers of small nodes
// (FP-tree nodes, bucket-list links, conditional databases) with
// stack-like lifetime. The arena provides O(1) allocation, contiguous
// placement (the substrate several ALSO patterns build on), and bulk
// release on destruction. Modeled on the RocksDB/LevelDB Arena.

#ifndef FPM_COMMON_ARENA_H_
#define FPM_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "fpm/common/bits.h"
#include "fpm/common/logging.h"

namespace fpm {

/// Not thread-safe.
///
/// Blocks grow geometrically from `initial_block_bytes` up to
/// `max_block_bytes`, so tiny arenas (e.g. a three-node conditional
/// FP-tree) cost one small allocation while large ones amortize to big
/// blocks. A single allocation larger than max_block_bytes gets a block
/// of exactly its size.
class Arena {
 public:
  static constexpr size_t kDefaultInitialBlockBytes = 4096;
  static constexpr size_t kDefaultMaxBlockBytes = 1u << 20;  // 1 MiB

  explicit Arena(size_t initial_block_bytes = kDefaultInitialBlockBytes,
                 size_t max_block_bytes = kDefaultMaxBlockBytes)
      : next_block_bytes_(initial_block_bytes),
        max_block_bytes_(max_block_bytes) {
    FPM_CHECK(next_block_bytes_ >= 64) << "arena block too small";
    FPM_CHECK(max_block_bytes_ >= next_block_bytes_);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `bytes` with the given alignment (power of two).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    FPM_DCHECK(IsPowerOfTwo(align));
    uintptr_t p = RoundUp(cursor_, align);
    if (p + bytes > limit_) {
      AddBlock(bytes + align);
      p = RoundUp(cursor_, align);
    }
    cursor_ = p + bytes;
    bytes_used_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  /// Allocates and default-constructs an array of `n` objects of type T.
  /// T must be trivially destructible: the arena never runs destructors.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena-allocated types must be trivially destructible");
    T* ptr = static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
    for (size_t i = 0; i < n; ++i) new (ptr + i) T();
    return ptr;
  }

  /// Allocates and constructs a single T with the given arguments.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena-allocated types must be trivially destructible");
    void* mem = Allocate(sizeof(T), alignof(T));
    return new (mem) T(std::forward<Args>(args)...);
  }

  /// Sum of all Allocate() request sizes (excludes alignment padding).
  size_t bytes_used() const { return bytes_used_; }
  /// Total bytes obtained from the system allocator.
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  void AddBlock(size_t min_bytes) {
    const size_t size = std::max(next_block_bytes_, min_bytes);
    // make_unique_for_overwrite: the arena must not pay for zeroing
    // memory the caller will initialize anyway.
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<char[]>(size), size});
    cursor_ = reinterpret_cast<uintptr_t>(blocks_.back().data.get());
    limit_ = cursor_ + size;
    bytes_reserved_ += size;
    if (next_block_bytes_ < max_block_bytes_) {
      next_block_bytes_ = std::min(next_block_bytes_ * 2, max_block_bytes_);
    }
  }

  size_t next_block_bytes_;
  size_t max_block_bytes_;
  std::vector<Block> blocks_;
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace fpm

#endif  // FPM_COMMON_ARENA_H_
