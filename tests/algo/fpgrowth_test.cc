#include "fpm/algo/fpgrowth/fpgrowth_miner.h"

#include <gtest/gtest.h>

#include "fpm/algo/fpgrowth/fptree.h"
#include "fpm/dataset/quest_gen.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::MakeDb;
using testutil::MineCanonical;

TEST(FpGrowthOptionsTest, SuffixReflectsToggles) {
  EXPECT_EQ(FpGrowthOptions{}.Suffix(), "");
  EXPECT_EQ(FpGrowthOptions::All().Suffix(), "+lex+cmp+dfs+pref");
}

TEST(FpGrowthMinerTest, TextbookExample) {
  Database db = MakeDb({{0, 1}, {0, 2}, {0, 1, 2}, {1}});
  FpGrowthMiner miner;
  const auto r = MineCanonical(miner, db, 2);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r[0], (CollectingSink::Entry{{0}, 3}));
  EXPECT_EQ(r[1], (CollectingSink::Entry{{0, 1}, 2}));
  EXPECT_EQ(r[2], (CollectingSink::Entry{{0, 2}, 2}));
}

TEST(FpGrowthMinerTest, SinglePathTreeEnumeratesSubsets) {
  // All transactions nest: the FP-tree is one path a>b>c.
  DatabaseBuilder b;
  for (int i = 0; i < 8; ++i) b.AddTransaction({0});
  for (int i = 0; i < 4; ++i) b.AddTransaction({0, 1});
  for (int i = 0; i < 2; ++i) b.AddTransaction({0, 1, 2});
  Database db = b.Build();
  FpGrowthMiner miner;
  const auto r = MineCanonical(miner, db, 2);
  // {0}:14 {1}:6 {2}:2 {0,1}:6 {0,2}:2 {1,2}:2 {0,1,2}:2
  ASSERT_EQ(r.size(), 7u);
  EXPECT_EQ(r[0], (CollectingSink::Entry{{0}, 14}));
  EXPECT_EQ(r[1], (CollectingSink::Entry{{0, 1}, 6}));
  EXPECT_EQ(r[4], (CollectingSink::Entry{{1}, 6}));
  EXPECT_EQ(r[6], (CollectingSink::Entry{{2}, 2}));
}

TEST(FpGrowthMinerTest, DfsRelayoutImpliesCompactNodes) {
  FpGrowthOptions o;
  o.dfs_relayout = true;
  FpGrowthMiner miner(o);
  EXPECT_EQ(miner.options().node_compaction, true);
  Database db = MakeDb({{0, 1}, {0, 1}});
  const auto r = MineCanonical(miner, db, 2);
  EXPECT_EQ(r.size(), 3u);
}

TEST(FpGrowthMinerTest, CompactTreeUsesLessMemoryThanPointerTree) {
  QuestParams p;
  p.num_transactions = 2000;
  p.avg_transaction_len = 10;
  p.avg_pattern_len = 4;
  p.num_items = 120;
  p.num_patterns = 60;
  auto db = GenerateQuest(p);
  ASSERT_TRUE(db.ok());
  FpGrowthMiner pointer_miner;
  FpGrowthOptions compact;
  compact.node_compaction = true;
  FpGrowthMiner compact_miner(compact);
  CountingSink s1, s2;
  Result<MineStats> pointer_stats = pointer_miner.Mine(db.value(), 20, &s1);
  Result<MineStats> compact_stats = compact_miner.Mine(db.value(), 20, &s2);
  ASSERT_TRUE(pointer_stats.ok());
  ASSERT_TRUE(compact_stats.ok());
  EXPECT_EQ(s1.checksum(), s2.checksum());
  // §4.3: differential encoding "reduces the node size and memory
  // requirements dramatically".
  EXPECT_LT(compact_stats->peak_structure_bytes,
            pointer_stats->peak_structure_bytes / 2);
}

TEST(FpGrowthMinerTest, WeightedSupports) {
  DatabaseBuilder b;
  b.AddTransaction({0, 1}, 6);
  b.AddTransaction({1, 2}, 4);
  Database db = b.Build();
  FpGrowthMiner miner;
  const auto r = MineCanonical(miner, db, 4);
  // {0}:6 {1}:10 {2}:4 {0,1}:6 {1,2}:4
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r[2], (CollectingSink::Entry{{1}, 10}));
}

TEST(FpGrowthMinerTest, RejectsBadArguments) {
  Database db = MakeDb({{0}});
  FpGrowthMiner miner;
  CollectingSink sink;
  EXPECT_FALSE(miner.Mine(db, 0, &sink).ok());
  EXPECT_FALSE(miner.Mine(db, 1, nullptr).ok());
}

// ----------------------------- tree units -----------------------------

TEST(PointerFpTreeTest, SharedPrefixesShareNodes) {
  FpTreeConfig config;
  PointerFpTree tree(5, config);
  const Item p1[] = {0, 1, 2};
  const Item p2[] = {0, 1, 3};
  const Item p3[] = {0, 4};
  tree.AddPath(p1, 1);
  tree.AddPath(p2, 2);
  tree.AddPath(p3, 1);
  tree.Finalize();
  // Nodes: 0,1,2,3,4 -> 5 nodes (prefix 0,1 shared).
  EXPECT_EQ(tree.num_nodes(), 5u);
  EXPECT_EQ(tree.ItemSupport(0), 4u);
  EXPECT_EQ(tree.ItemSupport(1), 3u);
  EXPECT_EQ(tree.ItemSupport(3), 2u);
}

TEST(PointerFpTreeTest, ForEachPathYieldsAncestors) {
  FpTreeConfig config;
  PointerFpTree tree(4, config);
  const Item p1[] = {0, 1, 3};
  const Item p2[] = {2, 3};
  tree.AddPath(p1, 5);
  tree.AddPath(p2, 7);
  tree.Finalize();
  std::vector<std::pair<std::vector<Item>, Support>> paths;
  tree.ForEachPath(3, [&](std::span<const Item> base, Support count) {
    paths.emplace_back(std::vector<Item>(base.begin(), base.end()), count);
  });
  ASSERT_EQ(paths.size(), 2u);
  // Order depends on link insertion; sort for determinism.
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(paths[0].first, (std::vector<Item>{0, 1}));
  EXPECT_EQ(paths[0].second, 5u);
  EXPECT_EQ(paths[1].first, (std::vector<Item>{2}));
  EXPECT_EQ(paths[1].second, 7u);
}

TEST(PointerFpTreeTest, SinglePathDetection) {
  FpTreeConfig config;
  PointerFpTree tree(4, config);
  const Item p1[] = {0, 1, 2};
  const Item p2[] = {0, 1};
  tree.AddPath(p1, 1);
  tree.AddPath(p2, 1);
  tree.Finalize();
  std::vector<std::pair<Item, Support>> path;
  ASSERT_TRUE(tree.SinglePath(&path));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], (std::pair<Item, Support>{0, 2}));
  EXPECT_EQ(path[2], (std::pair<Item, Support>{2, 1}));

  const Item p3[] = {3};
  tree.AddPath(p3, 1);
  tree.Finalize();
  EXPECT_FALSE(tree.SinglePath(&path));
}

TEST(CompactFpTreeTest, MirrorsPointerTreeBehaviour) {
  FpTreeConfig config;
  CompactFpTree tree(5, config);
  const Item p1[] = {0, 1, 2};
  const Item p2[] = {0, 1, 3};
  const Item p3[] = {0, 4};
  tree.AddPath(p1, 1);
  tree.AddPath(p2, 2);
  tree.AddPath(p3, 1);
  tree.Finalize();
  EXPECT_EQ(tree.num_nodes(), 6u);  // root + 5
  EXPECT_EQ(tree.ItemSupport(0), 4u);
  EXPECT_EQ(tree.ItemSupport(1), 3u);
  EXPECT_EQ(tree.ItemSupport(3), 2u);
  EXPECT_EQ(tree.items(), (std::vector<Item>{0, 1, 2, 3, 4}));
}

TEST(CompactFpTreeTest, DiffEncodingSurvivesEscapes) {
  // Item jumps larger than 254 force the escape path.
  FpTreeConfig config;
  CompactFpTree tree(2000, config);
  const Item p1[] = {0, 1000, 1999};
  const Item p2[] = {0, 1000};
  tree.AddPath(p1, 3);
  tree.AddPath(p2, 1);
  tree.Finalize();
  EXPECT_EQ(tree.ItemSupport(1000), 4u);
  EXPECT_EQ(tree.ItemSupport(1999), 3u);
  std::vector<std::pair<std::vector<Item>, Support>> paths;
  tree.ForEachPath(1999, [&](std::span<const Item> base, Support count) {
    paths.emplace_back(std::vector<Item>(base.begin(), base.end()), count);
  });
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].first, (std::vector<Item>{0, 1000}));
  EXPECT_EQ(paths[0].second, 3u);
}

TEST(CompactFpTreeTest, RelayoutPreservesSemantics) {
  FpTreeConfig plain_config;
  FpTreeConfig relayout_config;
  relayout_config.dfs_relayout = true;
  CompactFpTree plain(10, plain_config);
  CompactFpTree relaid(10, relayout_config);
  const std::vector<std::vector<Item>> paths = {
      {0, 2, 5}, {0, 2, 7}, {1, 3}, {0, 9}, {1, 3, 8}, {4}};
  for (const auto& p : paths) {
    plain.AddPath(p, 2);
    relaid.AddPath(p, 2);
  }
  plain.Finalize();
  relaid.Finalize();
  EXPECT_EQ(plain.items(), relaid.items());
  for (Item i : plain.items()) {
    EXPECT_EQ(plain.ItemSupport(i), relaid.ItemSupport(i)) << "item " << i;
    std::vector<std::pair<std::vector<Item>, Support>> a, b;
    plain.ForEachPath(i, [&](std::span<const Item> base, Support c) {
      a.emplace_back(std::vector<Item>(base.begin(), base.end()), c);
    });
    relaid.ForEachPath(i, [&](std::span<const Item> base, Support c) {
      b.emplace_back(std::vector<Item>(base.begin(), base.end()), c);
    });
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "item " << i;
  }
}

TEST(CompactFpTreeTest, SinglePathDetection) {
  FpTreeConfig config;
  CompactFpTree tree(300, config);
  const Item p1[] = {0, 255, 299};  // includes an escape edge
  tree.AddPath(p1, 4);
  tree.Finalize();
  std::vector<std::pair<Item, Support>> path;
  ASSERT_TRUE(tree.SinglePath(&path));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], (std::pair<Item, Support>{255, 4}));
}

TEST(CompactFpTreeTest, JumpPointersBuiltWhenPrefetching) {
  FpTreeConfig config;
  config.software_prefetch = true;
  CompactFpTree tree(7, config);
  // Six leaves of item 6: a node-link chain longer than the jump
  // distance, so some jump pointers land inside the chain.
  for (Item first = 0; first < 6; ++first) {
    const Item path[] = {first, 6};
    tree.AddPath(path, 1);
  }
  tree.Finalize();
  EXPECT_EQ(tree.ItemSupport(6), 6u);
  // Behaviour (not just construction) must be unchanged by prefetch.
  size_t paths = 0;
  tree.ForEachPath(6, [&](std::span<const Item>, Support) { ++paths; });
  EXPECT_EQ(paths, 6u);
}

}  // namespace
}  // namespace fpm
