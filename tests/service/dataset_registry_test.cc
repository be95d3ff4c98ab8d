#include "fpm/service/dataset_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fpm/dataset/fimi_io.h"
#include "fpm/dataset/packed.h"
#include "service/service_test_util.h"

namespace fpm {
namespace {

TEST(ContentDigestTest, KnownFnv1aVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(ContentDigest(""), "cbf29ce484222325");
  EXPECT_EQ(ContentDigest("a"), "af63dc4c8601ec8c");
  EXPECT_NE(ContentDigest("1 2\n"), ContentDigest("1 2"));
}

TEST(DatasetRegistryTest, LoadsOnceAndShares) {
  const std::string path =
      test::WriteTempFimi("registry_share.dat", test::SmallFimiText());
  DatasetRegistry registry;
  auto first = registry.Open(path);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = registry.Open(path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->database.get(), second->database.get());
  EXPECT_EQ(first->digest, second->digest);
  EXPECT_EQ(first->database->num_transactions(), 5u);
  const DatasetRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident_entries, 1u);
}

TEST(DatasetRegistryTest, SameBytesSameDigestAcrossPaths) {
  const std::string a =
      test::WriteTempFimi("registry_dup_a.dat", test::SmallFimiText());
  const std::string b =
      test::WriteTempFimi("registry_dup_b.dat", test::SmallFimiText());
  DatasetRegistry registry;
  auto ha = registry.Open(a);
  auto hb = registry.Open(b);
  ASSERT_TRUE(ha.ok() && hb.ok());
  // Distinct entries (keyed by path) but one digest: the result cache
  // treats them as the same dataset.
  EXPECT_NE(ha->database.get(), hb->database.get());
  EXPECT_EQ(ha->digest, hb->digest);
}

TEST(DatasetRegistryTest, MissingFileFailsAndLaterRetrySucceeds) {
  const std::string path = testing::TempDir() + "/registry_late.dat";
  std::remove(path.c_str());
  DatasetRegistry registry;
  EXPECT_FALSE(registry.Open(path).ok());
  // Failures are not cached: once the file exists, Open() succeeds.
  test::WriteTempFimi("registry_late.dat", test::SmallFimiText());
  auto handle = registry.Open(path);
  ASSERT_TRUE(handle.ok()) << handle.status();
  EXPECT_EQ(handle->database->num_transactions(), 5u);
  std::remove(path.c_str());
}

TEST(DatasetRegistryTest, ConcurrentGetsLoadExactlyOnce) {
  const std::string path =
      test::WriteTempFimi("registry_race.dat", test::SmallFimiText());
  DatasetRegistry registry;
  constexpr int kThreads = 8;
  std::vector<DatasetHandle> handles(kThreads);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        auto h = registry.Open(path);
        if (h.ok()) {
          handles[static_cast<size_t>(i)] = std::move(h).value();
        } else {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  ASSERT_EQ(failures.load(), 0);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(handles[static_cast<size_t>(i)].database.get(),
              handles[0].database.get());
  }
  EXPECT_EQ(registry.stats().loads, 1u);
  EXPECT_EQ(registry.stats().hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(DatasetRegistryTest, PinnedEntriesSurviveTheBudget) {
  const std::string a =
      test::WriteTempFimi("registry_pin_a.dat", test::SmallFimiText());
  const std::string b =
      test::WriteTempFimi("registry_pin_b.dat", "7 8\n7 9\n");
  const std::string c =
      test::WriteTempFimi("registry_pin_c.dat", "5 6\n5\n");
  // A 1-byte budget puts the registry permanently over budget, so every
  // unpinned entry is evictable the moment a new load lands.
  DatasetRegistry registry(/*budget_bytes=*/1);

  auto ha = registry.Open(a);
  ASSERT_TRUE(ha.ok());
  // While `ha` pins A, loading B must not evict it.
  auto hb = registry.Open(b);
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(registry.stats().resident_entries, 2u);

  const Database* a_db = ha->database.get();
  {
    auto again = registry.Open(a);  // still the same object — not reloaded
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->database.get(), a_db);
  }
  EXPECT_EQ(registry.stats().loads, 2u);

  // Release both pins; the next load may now evict A and B.
  ha.value() = DatasetHandle{};
  hb.value() = DatasetHandle{};
  auto hc = registry.Open(c);
  ASSERT_TRUE(hc.ok());
  EXPECT_GE(registry.stats().evictions, 2u);
  // A was evicted, so fetching it again is a fresh load.
  auto ha2 = registry.Open(a);
  ASSERT_TRUE(ha2.ok());
  EXPECT_EQ(registry.stats().loads, 4u);
}

TEST(DatasetRegistryTest, PackedOpenIsMappedAndSharesTheFimiDigest) {
  const std::string fimi =
      test::WriteTempFimi("registry_packed.dat", test::SmallFimiText());
  const std::string packed = testing::TempDir() + "/registry_packed.fpk";
  auto parsed = ReadFimiFile(fimi);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // Pack with the digest of the raw FIMI bytes — what fpm_pack records.
  ASSERT_TRUE(
      WritePacked(parsed.value(), packed, ContentDigest(test::SmallFimiText()))
          .ok());

  DatasetRegistry registry;
  auto from_fimi = registry.Open(fimi);
  auto from_packed = registry.Open(packed);
  ASSERT_TRUE(from_fimi.ok()) << from_fimi.status();
  ASSERT_TRUE(from_packed.ok()) << from_packed.status();
  // Same digest either way: the ResultCache keys storage-agnostically.
  EXPECT_EQ(from_fimi->digest, from_packed->digest);
  EXPECT_EQ(from_packed->database->storage_kind(), StorageKind::kPacked);
  EXPECT_EQ(from_packed->database->num_transactions(), 5u);

  auto info = registry.Info(from_packed->id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->storage, "packed");
  auto fimi_info = registry.Info(from_fimi->id);
  ASSERT_TRUE(fimi_info.ok());
  EXPECT_EQ(fimi_info->storage, "memory");

  const DatasetRegistryStats stats = registry.stats();
  EXPECT_GT(stats.mapped_bytes, 0u);
  bool found = false;
  for (const auto& d : stats.datasets) {
    if (d.path != packed) continue;
    found = true;
    EXPECT_EQ(d.storage, "packed");
    EXPECT_GT(d.mapped_bytes, 0u);
  }
  EXPECT_TRUE(found);
}

TEST(DatasetRegistryTest, MappedDatasetPinsBeyondTheByteBudget) {
  const std::string fimi =
      test::WriteTempFimi("registry_overbudget.dat", test::SmallFimiText());
  const std::string packed = testing::TempDir() + "/registry_overbudget.fpk";
  auto parsed = ReadFimiFile(fimi);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(WritePacked(parsed.value(), packed).ok());

  // The packed file is hundreds of bytes; the budget is one. A heap
  // entry this size would be evicted immediately — the mapped entry is
  // legal because only resident (malloc'd) bytes count.
  DatasetRegistry registry(/*budget_bytes=*/1);
  auto handle = registry.Open(packed);
  ASSERT_TRUE(handle.ok()) << handle.status();
  EXPECT_GT(handle->database->mapped_bytes(), registry.budget_bytes());

  const DatasetRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.resident_entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, registry.budget_bytes());
  EXPECT_GT(stats.mapped_bytes, registry.budget_bytes());

  // Still resident on re-open — not reloaded, not evicted.
  auto again = registry.Open(packed);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->database.get(), handle->database.get());
  EXPECT_EQ(registry.stats().loads, 1u);
}

TEST(DatasetRegistryTest, ConcurrentChurnUnderTinyBudget) {
  // Refcount-release stress: threads repeatedly pin one of three
  // datasets while the 1-byte budget forces eviction of every entry the
  // moment it is unpinned. The invariants: no load failures, handles
  // always see the right data, and pinned databases are never yanked.
  const std::string paths[3] = {
      test::WriteTempFimi("registry_churn_a.dat", "1 2\n1 2\n"),
      test::WriteTempFimi("registry_churn_b.dat", "3 4\n3 4\n3\n"),
      test::WriteTempFimi("registry_churn_c.dat", "5\n5\n5\n5\n"),
  };
  const size_t expected_rows[3] = {2, 3, 4};
  DatasetRegistry registry(/*budget_bytes=*/1);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 50; ++i) {
          const size_t which = static_cast<size_t>(t + i) % 3;
          auto h = registry.Open(paths[which]);
          if (!h.ok() ||
              h->database->num_transactions() != expected_rows[which]) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(registry.stats().evictions, 0u);
}

}  // namespace
}  // namespace fpm
