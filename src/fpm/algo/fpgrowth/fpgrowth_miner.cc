#include "fpm/algo/fpgrowth/fpgrowth_miner.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "fpm/algo/fpgrowth/fptree.h"
#include "fpm/common/cancel.h"
#include "fpm/layout/item_order.h"
#include "fpm/layout/lexicographic.h"
#include "fpm/obs/trace.h"

namespace fpm {

std::string FpGrowthOptions::Suffix() const {
  std::string s;
  if (lexicographic_order) s += "+lex";
  if (node_compaction || dfs_relayout) s += "+cmp";
  if (dfs_relayout) s += "+dfs";
  if (software_prefetch) s += "+pref";
  return s;
}

namespace {

// The FP-Growth recursion, shared by all tree stores.
template <typename Tree>
class FpGrowthRun {
 public:
  FpGrowthRun(const FpTreeConfig& tree_config, Support min_support,
              const std::vector<Item>& item_map, ItemsetSink* sink,
              MineStats* stats, const CancelToken* cancel)
      : tree_config_(tree_config),
        min_support_(min_support),
        item_map_(item_map),
        sink_(sink),
        stats_(stats),
        cancel_(cancel) {}

  void MineTree(const Tree& tree, std::vector<Item>* prefix) {
    if (Cancelled()) return;
    // Single-path shortcut: enumerate all subsets directly; the support
    // of a subset is the count of its deepest element.
    std::vector<std::pair<Item, Support>> path;
    if (tree.SinglePath(&path)) {
      if (!path.empty()) EnumeratePath(path, 0, prefix);
      return;
    }

    // Bottom-up: least frequent item (largest rank) first.
    const std::vector<Item>& items = tree.items();
    std::vector<Support> cond_counts;
    std::vector<Item> filtered;
    for (size_t pos = items.size(); pos-- > 0;) {
      if (Cancelled()) return;
      const Item item = items[pos];
      const Support support = tree.ItemSupport(item);
      prefix->push_back(item_map_[item]);
      sink_->Emit(*prefix, support);
      ++stats_->num_frequent;

      if (item > 0) {
        // Conditional pattern base: count items over the upward paths.
        cond_counts.assign(item, 0);
        tree.ForEachPath(item, [&](std::span<const Item> base,
                                   Support count) {
          for (Item it : base) cond_counts[it] += count;
        });
        bool any = false;
        for (Item i = 0; i < item; ++i) {
          if (cond_counts[i] >= min_support_) {
            any = true;
            break;
          }
        }
        if (any) {
          // Build the conditional tree from the filtered paths.
          Tree cond(item, tree_config_);
          tree.ForEachPath(item, [&](std::span<const Item> base,
                                     Support count) {
            filtered.clear();
            for (Item it : base) {
              if (cond_counts[it] >= min_support_) filtered.push_back(it);
            }
            if (!filtered.empty()) cond.AddPath(filtered, count);
          });
          cond.Finalize();
          MineTree(cond, prefix);
        }
      }
      prefix->pop_back();
    }
  }

 private:
  // Emits every non-empty subset of path[pos..]; the last chosen element
  // is the deepest, so its count is the subset's support.
  void EnumeratePath(const std::vector<std::pair<Item, Support>>& path,
                     size_t pos, std::vector<Item>* prefix) {
    for (size_t j = pos; j < path.size(); ++j) {
      prefix->push_back(item_map_[path[j].first]);
      sink_->Emit(*prefix, path[j].second);
      ++stats_->num_frequent;
      EnumeratePath(path, j + 1, prefix);
      prefix->pop_back();
    }
  }

  bool Cancelled() const { return cancel_ != nullptr && cancel_->cancelled(); }

  const FpTreeConfig& tree_config_;
  const Support min_support_;
  const std::vector<Item>& item_map_;
  ItemsetSink* sink_;
  MineStats* stats_;
  const CancelToken* cancel_;
};

template <typename Tree>
void RunFpGrowth(const Database& db, const FpGrowthOptions& options,
                 Support min_support, ItemsetSink* sink, MineStats* stats) {
  // Preparation: frequency ranking + optional P1 lexicographic sort.
  PhaseSpan prep_span(PhaseName(PhaseId::kPrepare));
  Database ranked;
  std::vector<Item> item_map;
  if (options.lexicographic_order) {
    LexicographicResult lex = LexicographicOrder(db);
    ranked = std::move(lex.database);
    item_map = lex.item_order.to_item();
  } else {
    ItemOrder order = ItemOrder::ByDecreasingFrequency(db);
    ranked = RemapItems(db, order);
    item_map = order.to_item();
  }
  // Frequent ranks form a prefix of the rank space.
  const auto& freq = ranked.item_frequencies();
  uint32_t num_frequent = 0;
  while (num_frequent < freq.size() && freq[num_frequent] >= min_support) {
    ++num_frequent;
  }
  stats->FinishPhase(PhaseId::kPrepare, prep_span);

  // Tree construction (the "insert" phase of Figure 2's profile).
  PhaseSpan build_span(PhaseName(PhaseId::kBuild));
  FpTreeConfig tree_config;
  tree_config.software_prefetch = options.software_prefetch;
  tree_config.dfs_relayout = options.dfs_relayout;

  Tree tree(num_frequent, tree_config);
  std::vector<Item> filtered;
  for (Tid t = 0; t < ranked.num_transactions(); ++t) {
    // Build-phase cancellation: check once per 1024 inserted paths so a
    // deadline can interrupt even a run that never reaches the mine phase.
    if ((t & 1023u) == 0 && options.cancel != nullptr &&
        options.cancel->cancelled()) {
      return;
    }
    filtered.clear();
    for (Item it : ranked.transaction(t)) {
      // Ranked transactions are ascending, so the first infrequent rank
      // ends the frequent prefix.
      if (it >= num_frequent) break;
      filtered.push_back(it);
    }
    if (!filtered.empty()) tree.AddPath(filtered, ranked.weight(t));
  }
  tree.Finalize();
  stats->FinishPhase(PhaseId::kBuild, build_span);
  stats->peak_structure_bytes = tree.memory_bytes();

  PhaseSpan mine_span(PhaseName(PhaseId::kMine));
  FpGrowthRun<Tree> run(tree_config, min_support, item_map, sink, stats,
                        options.cancel);
  std::vector<Item> prefix;
  run.MineTree(tree, &prefix);
  stats->FinishPhase(PhaseId::kMine, mine_span);
}

}  // namespace

FpGrowthMiner::FpGrowthMiner(FpGrowthOptions options) : options_(options) {
  if (options_.dfs_relayout) options_.node_compaction = true;
}

Result<MineStats> FpGrowthMiner::MineImpl(const Database& db,
                                          Support min_support,
                                          ItemsetSink* sink) {
  MineStats stats;
  if (options_.node_compaction) {
    RunFpGrowth<CompactFpTree>(db, options_, min_support, sink, &stats);
  } else {
    RunFpGrowth<PointerFpTree>(db, options_, min_support, sink, &stats);
  }
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    return options_.cancel->ToStatus();
  }
  return stats;
}

}  // namespace fpm
