#include "fpm/dataset/versioned.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace fpm {
namespace {

Database BuildDb(const std::vector<Itemset>& txns) {
  DatabaseBuilder b;
  for (const Itemset& t : txns) b.AddTransaction(t);
  return b.Build();
}

/// Byte-level database equality: transactions (content and order),
/// weights, frequencies and the derived aggregates.
void ExpectSameDatabase(const Database& expected, const Database& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.num_transactions(), actual.num_transactions()) << label;
  EXPECT_EQ(expected.num_items(), actual.num_items()) << label;
  EXPECT_EQ(expected.total_weight(), actual.total_weight()) << label;
  for (Tid t = 0; t < expected.num_transactions(); ++t) {
    const auto want = expected.transaction(t);
    const auto got = actual.transaction(t);
    ASSERT_EQ(want.size(), got.size()) << label << " txn " << t;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i]) << label << " txn " << t << " pos " << i;
    }
    EXPECT_EQ(expected.weight(t), actual.weight(t)) << label << " txn " << t;
  }
  EXPECT_TRUE(std::ranges::equal(expected.item_frequencies(),
                                 actual.item_frequencies()))
      << label;
}

TEST(VersionedDatasetTest, BaseIsVersionOne) {
  VersionedDataset ds(BuildDb({{1, 2}, {2, 3}}), "base-digest");
  ASSERT_EQ(ds.versions().size(), 1u);
  const DatasetVersion& v1 = ds.latest();
  EXPECT_EQ(v1.number, 1u);
  EXPECT_EQ(v1.digest, "base-digest");
  EXPECT_TRUE(v1.parent_digest.empty());
  EXPECT_EQ(v1.delta, nullptr);
  EXPECT_EQ(v1.num_transactions, 2u);
  EXPECT_EQ(ds.live_transactions(), 2u);
  EXPECT_EQ(ds.version(1), &ds.versions()[0]);
  EXPECT_EQ(ds.version(0), nullptr);
  EXPECT_EQ(ds.version(2), nullptr);
}

TEST(VersionedDatasetTest, AppendCreatesImmutableChildVersion) {
  VersionedDataset ds(BuildDb({{1, 2}, {2, 3}}), "base");
  std::shared_ptr<const Database> v1_db = ds.latest().database;

  auto appended = ds.Append({{3, 4}, {1}});
  ASSERT_TRUE(appended.ok()) << appended.status();
  const DatasetVersion& v2 = *appended.value();
  EXPECT_EQ(v2.number, 2u);
  EXPECT_EQ(v2.parent_digest, "base");
  EXPECT_EQ(v2.digest, ChainDigest("base", *v2.delta));
  ASSERT_NE(v2.delta, nullptr);
  EXPECT_EQ(v2.delta->appended.size(), 2u);
  EXPECT_TRUE(v2.delta->expired.empty());
  EXPECT_EQ(v2.delta->appended_weight, 2u);
  EXPECT_EQ(v2.num_transactions, 4u);

  // Readers of version 1 are unaffected: same object, same contents.
  EXPECT_EQ(ds.version(1)->database.get(), v1_db.get());
  ExpectSameDatabase(BuildDb({{1, 2}, {2, 3}}), *v1_db, "v1 after append");
  ExpectSameDatabase(BuildDb({{1, 2}, {2, 3}, {3, 4}, {1}}), *v2.database,
                     "v2");
}

TEST(VersionedDatasetTest, AppendValidatesInput) {
  VersionedDataset ds(BuildDb({{1}}), "d");
  EXPECT_FALSE(ds.Append({}).ok());
  EXPECT_FALSE(ds.Append({{1, 2}}, {1.0, 2.0}).ok());  // length mismatch
  EXPECT_FALSE(ds.Append({Itemset{}}).ok());           // empty transaction
  EXPECT_EQ(ds.versions().size(), 1u);  // failed ops create no version
}

// A database sizes its per-item arrays by the largest id, so an append
// naming item 4294967294 would cost 16 GB; ids stop at kMaxItem, as in
// the FIMI reader.
TEST(VersionedDatasetTest, AppendRefusesAnItemAboveTheLargestId) {
  VersionedDataset ds(BuildDb({{1}}), "d");
  const Result<const DatasetVersion*> refused =
      ds.Append({{1, 2}, {3, kMaxItem + 1}});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.status().message(),
            "transactions[1]: item 16777216 exceeds the largest item id "
            "16777215");
  EXPECT_EQ(ds.versions().size(), 1u);

  const Result<const DatasetVersion*> largest = ds.Append({{kMaxItem}});
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(largest.value()->database->num_items(), size_t{kMaxItem} + 1);
}

TEST(VersionedDatasetTest, AppendNormalizesDuplicateItems) {
  VersionedDataset ds(BuildDb({{1}}), "d");
  auto v = ds.Append({{5, 3, 5, 3, 7, 5}});
  ASSERT_TRUE(v.ok());
  // Same first-occurrence dedup as DatabaseBuilder::AddTransaction.
  ExpectSameDatabase(BuildDb({{1}, {5, 3, 7}}), *v.value()->database,
                     "dedup");
  EXPECT_EQ(v.value()->delta->appended[0], (Itemset{5, 3, 7}));
}

TEST(VersionedDatasetTest, ExpireDropsOldestTransactions) {
  VersionedDataset ds(BuildDb({{1, 2}, {2, 3}, {3, 4}}), "d");
  auto v = ds.Expire(2);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v.value()->number, 2u);
  EXPECT_EQ(v.value()->delta->expired.size(), 2u);
  EXPECT_EQ(v.value()->delta->expired_weight, 2u);
  EXPECT_EQ(ds.live_transactions(), 1u);
  ExpectSameDatabase(BuildDb({{3, 4}}), *v.value()->database, "after expire");
}

TEST(VersionedDatasetTest, ExpireValidatesCount) {
  VersionedDataset ds(BuildDb({{1}, {2}}), "d");
  EXPECT_FALSE(ds.Expire(0).ok());
  EXPECT_FALSE(ds.Expire(3).ok());
  EXPECT_TRUE(ds.Expire(2).ok());
  EXPECT_EQ(ds.live_transactions(), 0u);
}

TEST(VersionedDatasetTest, InterleavedMatchesFromScratchBuild) {
  VersionedDataset ds(BuildDb({{1, 2, 3}, {2, 3}}), "d");
  std::vector<Itemset> live = {{1, 2, 3}, {2, 3}};

  const auto append = [&](std::vector<Itemset> txns) {
    auto v = ds.Append(txns);
    ASSERT_TRUE(v.ok()) << v.status();
    for (Itemset& t : txns) live.push_back(std::move(t));
    ExpectSameDatabase(BuildDb(live), *v.value()->database, "append step");
  };
  const auto expire = [&](uint64_t n) {
    auto v = ds.Expire(n);
    ASSERT_TRUE(v.ok()) << v.status();
    live.erase(live.begin(), live.begin() + static_cast<long>(n));
    ExpectSameDatabase(BuildDb(live), *v.value()->database, "expire step");
  };

  append({{3, 4}, {1, 4}});
  expire(1);
  append({{5, 1}});
  expire(2);
  append({{2, 5}, {5}, {1, 2, 5}});
  EXPECT_EQ(ds.latest().number, 6u);
  EXPECT_EQ(ds.live_transactions(), live.size());

  // Every historical version still matches its own snapshot count.
  for (const DatasetVersion& v : ds.versions()) {
    EXPECT_EQ(v.num_transactions, v.database->num_transactions());
  }
}

TEST(ChainDigestTest, DeterministicAndParentSensitive) {
  VersionDelta delta;
  delta.appended = {{1, 2}, {3}};
  delta.appended_weights = {1, 1};
  delta.appended_weight = 2;
  const std::string d1 = ChainDigest("parent-a", delta);
  EXPECT_EQ(d1.size(), 16u);
  EXPECT_EQ(d1, ChainDigest("parent-a", delta));
  EXPECT_NE(d1, ChainDigest("parent-b", delta));

  VersionDelta other = delta;
  other.appended[1] = {4};
  EXPECT_NE(d1, ChainDigest("parent-a", other));

  VersionDelta with_expiry = delta;
  with_expiry.expired = {{9}};
  with_expiry.expired_weights = {1};
  with_expiry.expired_weight = 1;
  EXPECT_NE(d1, ChainDigest("parent-a", with_expiry));
}

TEST(ChainDigestTest, PinnedValue) {
  // Version digests key the result cache and chain into every later
  // version's digest, so the value itself must not drift.
  VersionDelta delta;
  delta.appended = {{1, 2}, {3}};
  delta.appended_weights = {1, 2};
  delta.appended_weight = 3;
  delta.expired = {{9}};
  delta.expired_weights = {1};
  delta.expired_weight = 1;
  EXPECT_EQ(ChainDigest("0123456789abcdef", delta), "7dd8b8943525ec7f");
}

TEST(ChainDigestTest, TimestampsDoNotAffectDigest) {
  VersionedDataset a(BuildDb({{1}}), "d");
  VersionedDataset b(BuildDb({{1}}), "d");
  auto va = a.Append({{2, 3}}, {10.0});
  auto vb = b.Append({{2, 3}}, {99.0});
  ASSERT_TRUE(va.ok() && vb.ok());
  EXPECT_EQ(va.value()->digest, vb.value()->digest);
}

TEST(VersionedDatasetTest, LastNWindowExpiresOverflowInSameVersion) {
  VersionedDataset ds(BuildDb({{1}, {2}, {3}}), "d");
  WindowPolicy policy;
  policy.last_n = 3;
  EXPECT_EQ(ds.SetPolicy(policy)->number, 1u);  // already within bounds

  auto v = ds.Append({{4}, {5}});
  ASSERT_TRUE(v.ok());
  // One version: two appended, two expired to hold the window at 3.
  EXPECT_EQ(v.value()->number, 2u);
  EXPECT_EQ(v.value()->delta->appended_weight, 2u);
  EXPECT_EQ(v.value()->delta->expired_weight, 2u);
  EXPECT_EQ(ds.live_transactions(), 3u);
  ExpectSameDatabase(BuildDb({{3}, {4}, {5}}), *v.value()->database,
                     "windowed");
}

TEST(VersionedDatasetTest, SetPolicyExpiresExistingOverflowImmediately) {
  VersionedDataset ds(BuildDb({{1}, {2}, {3}, {4}}), "d");
  WindowPolicy policy;
  policy.last_n = 2;
  const DatasetVersion* v = ds.SetPolicy(policy);
  EXPECT_EQ(v->number, 2u);  // installing the policy expired two
  EXPECT_EQ(v->delta->expired_weight, 2u);
  ExpectSameDatabase(BuildDb({{3}, {4}}), *v->database, "post-policy");
  EXPECT_TRUE(ds.policy().bounded());
}

TEST(VersionedDatasetTest, LastSecondsWindowUsesTimestamps) {
  VersionedDataset ds(BuildDb({{1}}), "d");
  WindowPolicy policy;
  policy.last_seconds = 10.0;
  ds.SetPolicy(policy);

  // The t=100 append moves the cutoff to 90, expiring the base row
  // (implicit t=0); t=112 then moves it to 102, expiring the t=100 row.
  ASSERT_TRUE(ds.Append({{2}}, {100.0}).ok());
  ASSERT_TRUE(ds.Append({{3}}, {105.0}).ok());
  auto v = ds.Append({{4}}, {112.0});
  ASSERT_TRUE(v.ok());
  ExpectSameDatabase(BuildDb({{3}, {4}}), *v.value()->database,
                     "time window");
}

TEST(VersionedDatasetTest, MemoryBytesGrowsWithHistory) {
  VersionedDataset ds(BuildDb({{1, 2}}), "d");
  const size_t before = ds.memory_bytes();
  ASSERT_TRUE(ds.Append({{1, 2, 3, 4, 5}}).ok());
  EXPECT_GT(ds.memory_bytes(), before);
}

}  // namespace
}  // namespace fpm
