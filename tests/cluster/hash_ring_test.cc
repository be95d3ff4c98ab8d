// ConsistentHashRing placement properties — the contract the cluster's
// correctness and stability rest on (see fpm/cluster/hash_ring.h):
// determinism across instances and insertion orders, balance within the
// documented bound at the default virtual-node count, and minimal key
// movement between rings built with and without a node.

#include "fpm/cluster/hash_ring.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fpm {
namespace {

std::vector<std::string> SixNodes() {
  return {"10.0.0.1:7100", "10.0.0.2:7100", "10.0.0.3:7100",
          "10.0.0.4:7100", "10.0.0.5:7100", "10.0.0.6:7100"};
}

std::vector<std::string> ManyKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Shaped like the FNV content digests the coordinator places.
    keys.push_back("digest-" + std::to_string(i * 2654435761u));
  }
  return keys;
}

// The primary owner, or "" on an empty ring.
std::string PrimaryOf(const ConsistentHashRing& ring, const std::string& key) {
  const std::vector<std::string> owners = ring.Owners(key, 1);
  return owners.empty() ? std::string() : owners.front();
}

std::vector<std::string> SixNodesWith(const std::string& extra) {
  std::vector<std::string> nodes = SixNodes();
  nodes.push_back(extra);
  return nodes;
}

TEST(HashRingTest, EmptyRingHasNoOwners) {
  ConsistentHashRing ring;
  EXPECT_TRUE(ring.Owners("anything", 2).empty());
  EXPECT_TRUE(ring.nodes().empty());
}

TEST(HashRingTest, SingleNodeOwnsEverything) {
  ConsistentHashRing ring({"solo:7100"});
  for (const std::string& key : ManyKeys(50)) {
    EXPECT_EQ(PrimaryOf(ring, key), "solo:7100");
    EXPECT_EQ(ring.Owners(key, 3),
              std::vector<std::string>({"solo:7100"}));
  }
}

TEST(HashRingTest, OwnersAreDistinctAndCapped) {
  ConsistentHashRing ring(SixNodes());
  for (const std::string& key : ManyKeys(200)) {
    const std::vector<std::string> owners = ring.Owners(key, 3);
    ASSERT_EQ(owners.size(), 3u) << key;
    const std::set<std::string> unique(owners.begin(), owners.end());
    EXPECT_EQ(unique.size(), owners.size()) << key << ": duplicate owner";
    EXPECT_EQ(owners.front(), PrimaryOf(ring, key));
  }
  // Asking for more replicas than nodes returns every node once.
  const std::vector<std::string> all = ring.Owners("k", 99);
  EXPECT_EQ(all.size(), SixNodes().size());
}

TEST(HashRingTest, PlacementIsDeterministicAcrossInstancesAndOrder) {
  // Every fpmd builds its ring from its own --cluster flag; a shuffled
  // flag or a restart must not change placement.
  std::vector<std::string> shuffled = SixNodes();
  std::reverse(shuffled.begin(), shuffled.end());
  ConsistentHashRing a(SixNodes());
  ConsistentHashRing b(shuffled);
  ConsistentHashRing c({"10.0.0.4:7100", "10.0.0.1:7100", "10.0.0.6:7100",
                        "10.0.0.2:7100", "10.0.0.5:7100", "10.0.0.3:7100"});
  for (const std::string& key : ManyKeys(500)) {
    const std::vector<std::string> owners = a.Owners(key, 2);
    EXPECT_EQ(owners, b.Owners(key, 2)) << key;
    EXPECT_EQ(owners, c.Owners(key, 2)) << key;
  }
}

TEST(HashRingTest, DuplicateNodesCollapse) {
  std::vector<std::string> doubled = SixNodes();
  const std::vector<std::string> nodes = SixNodes();
  doubled.insert(doubled.end(), nodes.begin(), nodes.end());
  ConsistentHashRing a(SixNodes());
  ConsistentHashRing b(doubled);
  EXPECT_EQ(a.nodes(), b.nodes());
  for (const std::string& key : ManyKeys(100)) {
    EXPECT_EQ(a.Owners(key, 2), b.Owners(key, 2)) << key;
  }
}

TEST(HashRingTest, BalanceBound) {
  // The DESIGN/ROADMAP partition-balance target: at 64 virtual nodes
  // the most-loaded node carries at most ~1.25x the mean.
  ConsistentHashRing ring(SixNodes(),
                          ConsistentHashRing::kDefaultVirtualNodes);
  std::map<std::string, size_t> load;
  const std::vector<std::string> keys = ManyKeys(10000);
  for (const std::string& key : keys) ++load[PrimaryOf(ring, key)];
  const double mean =
      static_cast<double>(keys.size()) / static_cast<double>(SixNodes().size());
  size_t max_load = 0;
  for (const auto& [node, count] : load) {
    max_load = std::max(max_load, count);
  }
  EXPECT_LE(static_cast<double>(max_load) / mean, 1.25)
      << "max " << max_load << " vs mean " << mean;
  // Every node should own something at this key count.
  EXPECT_EQ(load.size(), SixNodes().size());
}

TEST(HashRingTest, RemoveMovesOnlyTheLeaversKeys) {
  const std::string leaver = "10.0.0.3:7100";
  const ConsistentHashRing with(SixNodes());
  std::vector<std::string> rest = SixNodes();
  std::erase(rest, leaver);
  const ConsistentHashRing without(rest);
  size_t moved = 0;
  for (const std::string& key : ManyKeys(5000)) {
    const std::string before = PrimaryOf(with, key);
    const std::string now = PrimaryOf(without, key);
    if (before == leaver) {
      EXPECT_NE(now, leaver);
      ++moved;
    } else {
      // Keys the leaver did not own must not move at all.
      EXPECT_EQ(now, before) << key;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(HashRingTest, JoinStealsOnlyForTheJoiner) {
  const std::string joiner = "10.0.0.7:7100";
  const ConsistentHashRing without(SixNodes());
  const ConsistentHashRing with(SixNodesWith(joiner));
  const std::vector<std::string> keys = ManyKeys(5000);
  size_t stolen = 0;
  for (const std::string& key : keys) {
    const std::string now = PrimaryOf(with, key);
    if (now != PrimaryOf(without, key)) {
      // Any key that moved must have moved *to* the joiner.
      EXPECT_EQ(now, joiner) << key;
      ++stolen;
    }
  }
  // The joiner takes roughly 1/7th; it must take something and far
  // less than half.
  EXPECT_GT(stolen, 0u);
  EXPECT_LT(stolen, keys.size() / 2);
}

TEST(HashRingTest, AddRemoveRoundTripRestoresPlacement) {
  // Owner lists are one clockwise walk with repeats skipped, so the
  // ring with a transient node, that node dropped from its owners,
  // places every replica where the ring without it does.
  const std::string transient = "transient:7100";
  const ConsistentHashRing without(SixNodes());
  const ConsistentHashRing with(SixNodesWith(transient));
  for (const std::string& key : ManyKeys(1000)) {
    std::vector<std::string> owners = with.Owners(key, 3);
    std::erase(owners, transient);
    owners.resize(2);
    EXPECT_EQ(owners, without.Owners(key, 2)) << key;
  }
}

TEST(HashRingTest, HashKeyIsFnv1a64) {
  // Pin the hash so a refactor cannot silently reshuffle every
  // cluster's placement: FNV-1a 64 of "a" is the published constant.
  EXPECT_EQ(ConsistentHashRing::HashKey(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(ConsistentHashRing::HashKey("a"), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace fpm
