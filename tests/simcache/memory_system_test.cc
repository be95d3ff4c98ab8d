#include "fpm/simcache/memory_system.h"

#include <gtest/gtest.h>

namespace fpm {
namespace {

TEST(MemorySystemConfigTest, PresetsAreValid) {
  for (const auto& config :
       {MemorySystemConfig::PentiumD(), MemorySystemConfig::Athlon64X2()}) {
    EXPECT_TRUE(config.l1.Validate().ok()) << config.name;
    EXPECT_TRUE(config.l2.Validate().ok()) << config.name;
    EXPECT_GT(config.tlb_entries, 0u) << config.name;
  }
}

TEST(MemorySystemConfigTest, PresetsMatchTable5) {
  const auto m1 = MemorySystemConfig::PentiumD();
  EXPECT_EQ(m1.l1.size_bytes, 16u * 1024);
  EXPECT_EQ(m1.l2.size_bytes, 1024u * 1024);
  const auto m2 = MemorySystemConfig::Athlon64X2();
  EXPECT_EQ(m2.l1.size_bytes, 64u * 1024);
  EXPECT_EQ(m2.l2.size_bytes, 512u * 1024);
}

TEST(MemorySystemTest, MissesFlowDownTheHierarchy) {
  MemorySystem mem(MemorySystemConfig::PentiumD());
  mem.Touch(0x10000, 4);
  const auto s = mem.stats();
  EXPECT_EQ(s.l1.accesses, 1u);
  EXPECT_EQ(s.l1.misses, 1u);
  EXPECT_EQ(s.l2.accesses, 1u);  // only L1 misses reach L2
  EXPECT_EQ(s.l2.misses, 1u);
  EXPECT_EQ(s.tlb.misses, 1u);
  mem.Touch(0x10000, 4);
  EXPECT_EQ(mem.stats().l1.misses, 1u);  // now a hit
  EXPECT_EQ(mem.stats().l2.accesses, 1u);
}

TEST(MemorySystemTest, WideTouchSpansLines) {
  MemorySystem mem(MemorySystemConfig::PentiumD());
  mem.Touch(0, 64 * 3);  // exactly 3 lines... plus boundary
  EXPECT_GE(mem.stats().l1.accesses, 3u);
  EXPECT_LE(mem.stats().l1.accesses, 4u);
}

TEST(MemorySystemTest, TouchRangeTypedHelpers) {
  MemorySystem mem(MemorySystemConfig::PentiumD());
  std::vector<uint64_t> data(64);
  mem.TouchRange(data.data(), data.size());  // 512 bytes = 8-9 lines
  EXPECT_GE(mem.stats().l1.accesses, 8u);
  const uint64_t value = 42;
  mem.TouchObject(&value);
  EXPECT_GE(mem.stats().l1.accesses, 9u);
}

TEST(MemorySystemTest, EstimatedCyclesOrdersLayouts) {
  MemorySystemStats good, bad;
  good.l1.accesses = 1000;
  good.l1.misses = 10;
  good.l2.accesses = 10;
  good.l2.misses = 1;
  bad = good;
  bad.l1.misses = 500;
  bad.l2.accesses = 500;
  bad.l2.misses = 400;
  EXPECT_LT(good.EstimatedCycles(), bad.EstimatedCycles());
}

TEST(MemorySystemTest, SmallerL1MissesMore) {
  // The same scattered walk on M1 (16KB L1) vs M2 (64KB L1): the smaller
  // L1 cannot hold the working set.
  std::vector<char> buffer(48 * 1024);
  MemorySystem m1(MemorySystemConfig::PentiumD());
  MemorySystem m2(MemorySystemConfig::Athlon64X2());
  for (MemorySystem* mem : {&m1, &m2}) {
    for (int pass = 0; pass < 4; ++pass) {
      for (size_t off = 0; off < buffer.size(); off += 64) {
        mem->Touch(reinterpret_cast<uint64_t>(buffer.data()) + off);
      }
    }
  }
  EXPECT_GT(m1.stats().l1.misses, m2.stats().l1.misses);
}

}  // namespace
}  // namespace fpm
