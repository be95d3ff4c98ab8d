#include "fpm/simcache/db_trace.h"

#include <gtest/gtest.h>

#include "fpm/dataset/quest_gen.h"
#include "fpm/layout/lexicographic.h"

namespace fpm {
namespace {

Database TestDb(uint32_t num_transactions) {
  QuestParams p;
  p.num_transactions = num_transactions;
  p.avg_transaction_len = 12;
  p.avg_pattern_len = 4;
  p.num_items = 400;
  p.num_patterns = 120;
  auto db = GenerateQuest(p);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

// One sequential pass over the whole database, reading each
// transaction's offset slot and payload as the column walks do: the
// best case any layout can reach.
MemorySystemStats SequentialScan(const Database& db, MemorySystem* mem) {
  mem->Reset();
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    mem->TouchObject(&db.offsets()[t]);
    const auto tx = db.transaction(t);
    if (!tx.empty()) mem->TouchRange(tx.data(), tx.size());
  }
  return mem->stats();
}

TEST(DbTraceTest, SequentialScanMissesOncePerLine) {
  Database db = TestDb(4000);
  MemorySystem mem(MemorySystemConfig::PentiumD());
  const auto seq = SequentialScan(db, &mem);
  // Streaming through the CSR arrays misses each 64-byte line about
  // once; transaction boundaries can split a line access in two, so
  // allow one extra miss per transaction.
  const uint64_t payload_lines =
      (db.num_entries() * sizeof(Item) + db.num_transactions() * 8) / 64;
  EXPECT_LE(seq.l1.misses, payload_lines + db.num_transactions());
  EXPECT_GT(seq.l1.accesses, 0u);
}

TEST(DbTraceTest, ColumnWalkWorseThanSequential) {
  Database db = TestDb(4000);
  MemorySystem mem(MemorySystemConfig::PentiumD());
  const auto seq = SequentialScan(db, &mem);
  const auto col = TraceColumnWalk(db, &mem);
  EXPECT_GT(col.l1.miss_rate(), seq.l1.miss_rate());
}

TEST(DbTraceTest, LexOrderingReducesColumnWalkMisses) {
  // The core locality claim of P1 (§3.2), validated on the simulator.
  // The database must exceed the L1 and TLB reach for the ordering to
  // matter: ~2 MB here vs 16 KB L1 / 256 KB TLB coverage.
  Database db = TestDb(40000);
  LexicographicResult lex = LexicographicOrder(db);
  MemorySystem mem(MemorySystemConfig::PentiumD());
  const auto before = TraceColumnWalk(db, &mem);
  const auto after = TraceColumnWalk(lex.database, &mem);
  EXPECT_LT(after.l1.misses, before.l1.misses);
  EXPECT_LT(after.tlb.misses, before.tlb.misses);
}

TEST(DbTraceTest, TilingReducesColumnWalkMisses) {
  // The reuse claim of P6.1 (§3.4): the walk working set (~3 MB) far
  // exceeds the 1 MB L2, so the untiled walk re-fetches transactions
  // from memory while the tiled walk serves all items from the
  // resident tile.
  Database db = TestDb(60000);
  MemorySystem mem(MemorySystemConfig::PentiumD());
  const auto plain = TraceColumnWalk(db, &mem);
  const auto tiled = TraceTiledColumnWalk(db, /*tile_entries=*/2048, &mem);
  EXPECT_LT(tiled.l2.misses, plain.l2.misses);
  EXPECT_LT(tiled.l1.misses, plain.l1.misses);
}

TEST(DbTraceTest, TiledWalkTouchesSameVolume) {
  Database db = TestDb(4000);
  MemorySystem mem(MemorySystemConfig::PentiumD());
  const auto plain = TraceColumnWalk(db, &mem);
  const auto tiled = TraceTiledColumnWalk(db, 2048, &mem);
  EXPECT_EQ(plain.l1.accesses, tiled.l1.accesses);
}

TEST(DbTraceTest, EmptyDatabaseProducesNoAccesses) {
  MemorySystem mem(MemorySystemConfig::PentiumD());
  const auto s = TraceColumnWalk(Database(), &mem);
  EXPECT_EQ(s.l1.accesses, 0u);
}

}  // namespace
}  // namespace fpm
