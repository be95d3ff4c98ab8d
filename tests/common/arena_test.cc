#include "fpm/common/arena.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace fpm {
namespace {

TEST(ArenaTest, AllocationsAreDistinctAndWritable) {
  Arena arena;
  int* a = arena.New<int>(1);
  int* b = arena.New<int>(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
}

TEST(ArenaTest, AlignmentRespected) {
  Arena arena;
  (void)arena.Allocate(1, 1);
  void* p8 = arena.Allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p8) % 8, 0u);
  (void)arena.Allocate(3, 1);
  void* p64 = arena.Allocate(16, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p64) % 64, 0u);
}

TEST(ArenaTest, LargeAllocationSpansNewBlock) {
  Arena arena(/*block_bytes=*/4096);
  char* big = static_cast<char*>(arena.Allocate(100000));
  std::memset(big, 0xab, 100000);  // must be fully usable
  EXPECT_GE(arena.bytes_reserved(), 100000u);
}

TEST(ArenaTest, ManySmallAllocationsAllUsable) {
  Arena arena(4096);
  std::vector<uint32_t*> ptrs;
  for (uint32_t i = 0; i < 10000; ++i) ptrs.push_back(arena.New<uint32_t>(i));
  for (uint32_t i = 0; i < 10000; ++i) EXPECT_EQ(*ptrs[i], i);
  EXPECT_EQ(arena.bytes_used(), 10000 * sizeof(uint32_t));
}

TEST(ArenaTest, AllocateArrayValueInitializes) {
  Arena arena;
  uint64_t* arr = arena.AllocateArray<uint64_t>(256);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(arr[i], 0u);
}

TEST(ArenaTest, AllocationLargerThanMaxBlockGetsDedicatedBlock) {
  Arena arena(/*initial_block_bytes=*/64, /*max_block_bytes=*/4096);
  char* big = static_cast<char*>(arena.Allocate(1 << 20));
  std::memset(big, 0x5a, 1 << 20);  // must be fully usable
  EXPECT_GE(arena.bytes_reserved(), static_cast<size_t>(1 << 20));
  // The oversized block does not poison subsequent small allocations.
  int* p = arena.New<int>(7);
  EXPECT_EQ(*p, 7);
}

TEST(ArenaTest, AlignmentHoldsAcrossBlockBoundary) {
  Arena arena(/*initial_block_bytes=*/64, /*max_block_bytes=*/64);
  // Leave the cursor misaligned right before the block fills up, so the
  // aligned allocation must start a new block and re-align there.
  (void)arena.Allocate(61, 1);
  void* p = arena.Allocate(32, 32);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 32, 0u);
  std::memset(p, 0xcd, 32);
}

TEST(ArenaTest, TinyArenaCostsOneInitialBlock) {
  Arena arena(/*initial_block_bytes=*/256);
  EXPECT_EQ(arena.bytes_reserved(), 0u);  // nothing until first use
  for (int i = 0; i < 3; ++i) (void)arena.New<uint64_t>(i);
  EXPECT_EQ(arena.bytes_reserved(), 256u);
}

TEST(ArenaTest, BlocksGrowGeometricallyUpToMax) {
  Arena arena(/*initial_block_bytes=*/64, /*max_block_bytes=*/256);
  std::vector<size_t> block_sizes;
  size_t reserved = 0;
  while (block_sizes.size() < 5) {
    (void)arena.New<uint64_t>(0);
    if (arena.bytes_reserved() != reserved) {
      block_sizes.push_back(arena.bytes_reserved() - reserved);
      reserved = arena.bytes_reserved();
    }
  }
  EXPECT_EQ(block_sizes, (std::vector<size_t>{64, 128, 256, 256, 256}));
}

TEST(ArenaTest, BytesUsedExcludesPadding) {
  Arena arena;
  (void)arena.Allocate(1, 1);
  (void)arena.Allocate(1, 64);
  EXPECT_EQ(arena.bytes_used(), 2u);
}

}  // namespace
}  // namespace fpm
