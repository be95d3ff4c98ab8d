// Version-aware cache reseeding: a FREQUENT listing cached for a parent
// dataset version seeds a child-version query — candidates recounted
// over the delta only — and the answer must equal a cold mine of the
// child window, canonicalized.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fpm/algo/lcm/lcm_miner.h"
#include "fpm/service/service.h"
#include "service/service_test_util.h"

namespace fpm {
namespace {

MineRequest FrequentRequest(Support min_support) {
  MineRequest request;
  request.algorithm = Algorithm::kLcm;
  request.query = MiningQuery::Frequent(min_support);
  return request;
}

/// Cold oracle: a direct kernel run over `db`, canonicalized.
std::vector<CollectingSink::Entry> ColdFrequent(const Database& db,
                                                Support min_support) {
  LcmMiner miner;
  CollectingSink sink;
  EXPECT_TRUE(miner.Mine(db, min_support, &sink).ok());
  sink.Canonicalize();
  return sink.results();
}

std::vector<CollectingSink::Entry> Canonical(
    std::vector<CollectingSink::Entry> entries) {
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(ReseedTest, AppendedVersionReseedsFromParentListing) {
  const std::string path =
      test::WriteTempFimi("reseed_append.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{});

  // Warm the parent: FREQUENT at S=2 mined cold and cached.
  MineRequest parent = FrequentRequest(2);
  parent.dataset_path = path;
  auto cold = service.Execute(parent);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->cache, CacheOutcome::kMiss);

  // Stream one transaction; appended_weight = 1 < S = 3, and the parent
  // listing at 2 <= 3 - 1 is a complete candidate border.
  auto handle = service.registry().Open(path);
  ASSERT_TRUE(handle.ok());
  auto v2 = service.registry().Append(handle->id, {{1, 2, 3}});
  ASSERT_TRUE(v2.ok()) << v2.status();

  MineRequest child = FrequentRequest(3);
  child.dataset_id = handle->id;
  auto reseeded = service.Execute(child);
  ASSERT_TRUE(reseeded.ok()) << reseeded.status();
  EXPECT_EQ(reseeded->cache, CacheOutcome::kReseeded);
  EXPECT_EQ(reseeded->dataset_digest, v2->digest);

  // Byte-equal to a cold mine of the child window (reseeded listings
  // are canonical by contract).
  EXPECT_EQ(test::Itemsets(*reseeded), ColdFrequent(*v2->database, 3));
  EXPECT_EQ(reseeded->num_frequent, test::Itemsets(*reseeded).size());
}

TEST(ReseedTest, ExpiredVersionReseedsWithRecountedSupports) {
  const std::string path =
      test::WriteTempFimi("reseed_expire.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{});

  MineRequest parent = FrequentRequest(2);
  parent.dataset_path = path;
  ASSERT_TRUE(service.Execute(parent).ok());

  auto handle = service.registry().Open(path);
  ASSERT_TRUE(handle.ok());
  auto v2 = service.registry().Expire(handle->id, 1);
  ASSERT_TRUE(v2.ok()) << v2.status();

  // appended_weight = 0: any S > 0 qualifies, supports only shrink.
  MineRequest child = FrequentRequest(2);
  child.dataset_id = handle->id;
  auto reseeded = service.Execute(child);
  ASSERT_TRUE(reseeded.ok()) << reseeded.status();
  EXPECT_EQ(reseeded->cache, CacheOutcome::kReseeded);
  EXPECT_EQ(test::Itemsets(*reseeded), ColdFrequent(*v2->database, 2));
}

TEST(ReseedTest, DerivedTaskRidesTheReseededListing) {
  const std::string path =
      test::WriteTempFimi("reseed_closed.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{});

  MineRequest parent = FrequentRequest(2);
  parent.dataset_path = path;
  ASSERT_TRUE(service.Execute(parent).ok());

  auto handle = service.registry().Open(path);
  ASSERT_TRUE(handle.ok());
  auto v2 = service.registry().Append(handle->id, {{2, 3}});
  ASSERT_TRUE(v2.ok());

  // A CLOSED query on the child finds no cached entry, reseeds the
  // FREQUENT border, and derives closedness from it.
  MineRequest child;
  child.algorithm = Algorithm::kLcm;
  child.query = MiningQuery::Closed(3);
  child.dataset_id = handle->id;
  auto response = service.Execute(child);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->cache, CacheOutcome::kReseeded);

  // Oracle: cold closed mine over the child window, canonicalized.
  LcmMiner miner;
  CollectingSink sink;
  ASSERT_TRUE(miner.Mine(*v2->database, MiningQuery::Closed(3), &sink).ok());
  EXPECT_EQ(Canonical(test::Itemsets(*response)), Canonical(sink.results()));
}

TEST(ReseedTest, InsufficientMarginMinesCold) {
  const std::string path =
      test::WriteTempFimi("reseed_margin.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{});

  MineRequest parent = FrequentRequest(2);
  parent.dataset_path = path;
  ASSERT_TRUE(service.Execute(parent).ok());

  auto handle = service.registry().Open(path);
  ASSERT_TRUE(handle.ok());
  auto v2 = service.registry().Append(handle->id, {{1, 2}, {1, 3}});
  ASSERT_TRUE(v2.ok());

  // S = 2 <= appended_weight = 2: brand-new items could reach S, so the
  // parent border is not provably complete — must mine cold.
  MineRequest child = FrequentRequest(2);
  child.dataset_id = handle->id;
  auto response = service.Execute(child);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->cache, CacheOutcome::kMiss);
  EXPECT_EQ(Canonical(test::Itemsets(*response)),
            ColdFrequent(*v2->database, 2));
}

TEST(ReseedTest, VersionPinnedQueriesKeepTheirOwnCacheEntries) {
  const std::string path =
      test::WriteTempFimi("reseed_pin.dat", test::SmallFimiText());
  MiningService service(MiningService::Options{});

  auto handle = service.registry().Open(path);
  ASSERT_TRUE(handle.ok());
  auto v2 = service.registry().Append(handle->id, {{1, 2, 3}});
  ASSERT_TRUE(v2.ok());

  // Pin version 1 explicitly: digest (and cache key) is the parent's.
  MineRequest pinned = FrequentRequest(2);
  pinned.dataset_id = handle->id;
  pinned.dataset_version = 1;
  auto r1 = service.Execute(pinned);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1->cache, CacheOutcome::kMiss);
  EXPECT_EQ(r1->dataset_digest, handle->digest);

  // Replaying the pinned query is an exact hit on the parent entry.
  auto r2 = service.Execute(pinned);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->cache, CacheOutcome::kExact);
  EXPECT_EQ(test::Itemsets(*r2), test::Itemsets(*r1));

  // And the pinned parent listing doubles as the reseed source.
  MineRequest latest = FrequentRequest(3);
  latest.dataset_id = handle->id;
  auto r3 = service.Execute(latest);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->cache, CacheOutcome::kReseeded);
}

}  // namespace
}  // namespace fpm
