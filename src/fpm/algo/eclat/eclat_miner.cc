#include "fpm/algo/eclat/eclat_miner.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "fpm/bitvec/tidlist.h"
#include "fpm/bitvec/vertical.h"
#include "fpm/common/cancel.h"
#include "fpm/layout/lexicographic.h"
#include "fpm/obs/trace.h"
#include "fpm/layout/item_order.h"

namespace fpm {

std::string EclatOptions::Suffix() const {
  std::string s;
  if (lexicographic_order) s += "+lex";
  if (zero_escaping) s += "+esc";
  if (popcount != PopcountStrategy::kLut16) {
    s += "+simd:";
    s += PopcountStrategyName(ResolvePopcountStrategy(popcount));
  }
  return s;
}

namespace {

// One itemset's occurrence vector during the DFS. Top-level columns
// borrow the VerticalDatabase's storage; derived columns own a slice
// covering only their 1-range window (`offset` = global word index of
// data[0]), so 0-escaping also shrinks the working set.
struct Column {
  Item raw_item = 0;        // original item id of the extending item
  Support support = 0;
  WordRange range;          // global word coordinates
  uint32_t offset = 0;      // global index of data[0]
  const uint64_t* data = nullptr;
  std::vector<uint64_t> owned;
};

// One itemset's tid list during the sparse DFS (P2). Top-level columns
// borrow the TidListDatabase's lists; derived columns own theirs.
struct TidColumn {
  Item raw_item = 0;
  Support support = 0;
  std::span<const Tid> tids;   // view: borrowed, or into `owned`
  std::vector<Tid> owned;
};

// Everything a recursion step needs besides its columns and prefix.
struct EclatCtx {
  EclatOptions options;
  PopcountStrategy strategy = PopcountStrategy::kLut16;
  Support min_support = 1;
  // Tid-list path: per-transaction weights, into the TidListDatabase.
  const Support* weights = nullptr;

  bool Cancelled() const {
    return options.cancel != nullptr && options.cancel->cancelled();
  }
};

// child = a & b, counted with the configured strategy, windowed to the
// operands' 1-ranges when 0-escaping is on. The AND lands in a shared
// scratch buffer; only frequent children are materialized (trimmed to
// their 1-range), so the common infrequent-candidate case allocates
// nothing.
Column Intersect(const EclatCtx& ctx, const Column& a, const Column& b,
                 std::vector<uint64_t>* scratch) {
  Column child;
  child.raw_item = b.raw_item;
  const WordRange window = IntersectRanges(a.range, b.range);
  if (window.empty()) {
    child.range = WordRange{window.begin, window.begin};
    child.offset = window.begin;
    return child;
  }
  if (scratch->size() < window.size()) scratch->resize(window.size());
  child.support = static_cast<Support>(
      AndCount(a.data + (window.begin - a.offset),
               b.data + (window.begin - b.offset), scratch->data(),
               window.size(), ctx.strategy));
  if (child.support < ctx.min_support) {
    child.range = window;  // never used: the caller discards the child
    return child;
  }
  uint32_t begin = 0;
  uint32_t end = window.size();
  if (ctx.options.zero_escaping) {
    // Tighten the conservative window (§4.2: ranges are conservative,
    // not necessarily optimal — tightening keeps them short downpath).
    const uint64_t* words = scratch->data();
    while (begin < end && words[begin] == 0) ++begin;
    while (end > begin && words[end - 1] == 0) --end;
  }
  child.offset = window.begin + begin;
  child.range = WordRange{window.begin + begin, window.begin + end};
  child.owned.assign(scratch->begin() + begin, scratch->begin() + end);
  child.data = child.owned.data();
  return child;
}

// Mines one equivalence class: emits every column as an extension of
// `prefix` and recurses on its own extensions.
void MineClassStep(const EclatCtx& ctx, const std::vector<Column>& cols,
                   std::vector<Item>* prefix,
                   std::vector<uint64_t>* scratch, ItemsetSink* sink,
                   MineStats* stats) {
  std::vector<Column> next;
  for (size_t k = 0; k < cols.size(); ++k) {
    if (ctx.Cancelled()) return;
    const Column& a = cols[k];
    prefix->push_back(a.raw_item);
    sink->Emit(*prefix, a.support);
    ++stats->num_frequent;

    next.clear();
    for (size_t l = k + 1; l < cols.size(); ++l) {
      Column child = Intersect(ctx, a, cols[l], scratch);
      if (child.support >= ctx.min_support) next.push_back(std::move(child));
    }
    if (!next.empty()) {
      MineClassStep(ctx, next, prefix, scratch, sink, stats);
    }
    prefix->pop_back();
  }
}

// Tid-list step: the same walk as MineClassStep, with sorted-merge
// intersections summing the transactions' weights.
void MineClassTidStep(const EclatCtx& ctx,
                      const std::vector<TidColumn>& cols,
                      std::vector<Item>* prefix, std::vector<Tid>* scratch,
                      ItemsetSink* sink, MineStats* stats) {
  std::vector<TidColumn> next;
  for (size_t k = 0; k < cols.size(); ++k) {
    if (ctx.Cancelled()) return;
    const TidColumn& a = cols[k];
    prefix->push_back(a.raw_item);
    sink->Emit(*prefix, a.support);
    ++stats->num_frequent;

    next.clear();
    for (size_t l = k + 1; l < cols.size(); ++l) {
      const TidColumn& b = cols[l];
      const size_t cap = std::min(a.tids.size(), b.tids.size());
      if (scratch->size() < cap) scratch->resize(cap);
      Support support = 0;
      const size_t n = IntersectTidLists(a.tids, b.tids, ctx.weights,
                                         scratch->data(), &support);
      if (support < ctx.min_support) continue;
      TidColumn child;
      child.raw_item = b.raw_item;
      child.support = support;
      child.owned.assign(scratch->begin(), scratch->begin() + n);
      child.tids = std::span<const Tid>(child.owned);
      next.push_back(std::move(child));
    }
    if (!next.empty()) {
      MineClassTidStep(ctx, next, prefix, scratch, sink, stats);
    }
    prefix->pop_back();
  }
}

class EclatRun {
 public:
  EclatRun(const EclatOptions& options, Support min_support,
           ItemsetSink* sink, MineStats* stats)
      : min_support_(min_support), sink_(sink), stats_(stats) {
    ctx_.options = options;
    ctx_.strategy = ResolvePopcountStrategy(options.popcount);
    ctx_.min_support = min_support;
  }

  void Run(const Database& db) {
    // Preparation: frequency ranking (intrinsic) + optional P1 sort.
    PhaseSpan prep_span(PhaseName(PhaseId::kPrepare));
    Database ranked;
    if (ctx_.options.lexicographic_order) {
      LexicographicResult lex = LexicographicOrder(db);
      ranked = std::move(lex.database);
      item_map_ = lex.item_order.to_item();
    } else {
      ItemOrder order = ItemOrder::ByDecreasingFrequency(db);
      ranked = RemapItems(db, order);
      item_map_ = order.to_item();
    }
    stats_->FinishPhase(PhaseId::kPrepare, prep_span);

    // Frequency ranks are descending, so the frequent items form a
    // prefix of the rank space; only those columns are materialized.
    const auto& freq = ranked.item_frequencies();
    size_t num_frequent = 0;
    uint64_t entries = 0;
    while (num_frequent < freq.size() &&
           freq[num_frequent] >= min_support_) {
      entries += freq[num_frequent];
      ++num_frequent;
    }

    // P2: the layout follows the frequent columns' fill.
    const uint64_t cells =
        static_cast<uint64_t>(num_frequent) * ranked.total_weight();
    const std::vector<Item> order = ExtensionOrder(freq, num_frequent);
    if (entries * kEclatTidListFillInverse < cells) {
      MineTidLists(ranked, order);
    } else {
      MineBitVectors(ranked, order);
    }
  }

 private:
  // The top-level extension order both layouts walk: frequent ranks by
  // ascending support (the classic Eclat order — small intermediates
  // first), ties broken by rank. The emission order therefore depends on
  // neither the layout nor min_support: the run at a higher threshold
  // emits exactly the support-filtered subsequence of the run at a lower
  // one, whichever layout each run picks (the service's result-cache
  // dominance reuse depends on this).
  static std::vector<Item> ExtensionOrder(std::span<const Support> freq,
                                          size_t num_frequent) {
    std::vector<Item> items(num_frequent);
    for (size_t i = 0; i < num_frequent; ++i) items[i] = static_cast<Item>(i);
    std::sort(items.begin(), items.end(), [&freq](Item a, Item b) {
      return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
    });
    return items;
  }

  void MineBitVectors(const Database& ranked,
                      const std::vector<Item>& order) {
    PhaseSpan build_span(PhaseName(PhaseId::kBuild));
    VerticalDatabase vdb = VerticalDatabase::FromDatabase(ranked,
                                                          order.size());
    stats_->FinishPhase(PhaseId::kBuild, build_span);
    stats_->peak_structure_bytes = vdb.memory_bytes();

    PhaseSpan mine_span(PhaseName(PhaseId::kMine));
    const auto& freq = ranked.item_frequencies();
    std::vector<Column> cols(order.size());
    for (size_t k = 0; k < order.size(); ++k) {
      const Item i = order[k];
      cols[k].raw_item = item_map_[i];
      cols[k].support = freq[i];
      cols[k].data = vdb.column(i).words();
      cols[k].offset = 0;
      cols[k].range =
          ctx_.options.zero_escaping ? vdb.one_range(i) : vdb.full_range();
    }
    std::vector<Item> prefix;
    std::vector<uint64_t> scratch;
    MineClassStep(ctx_, cols, &prefix, &scratch, sink_, stats_);
    stats_->FinishPhase(PhaseId::kMine, mine_span);
  }

  void MineTidLists(const Database& ranked, const std::vector<Item>& order) {
    PhaseSpan build_span(PhaseName(PhaseId::kBuild));
    TidListDatabase tdb = TidListDatabase::FromDatabase(ranked, order.size());
    stats_->FinishPhase(PhaseId::kBuild, build_span);
    stats_->peak_structure_bytes = tdb.memory_bytes();

    PhaseSpan mine_span(PhaseName(PhaseId::kMine));
    ctx_.weights = tdb.weights().data();
    const auto& freq = ranked.item_frequencies();
    std::vector<TidColumn> cols(order.size());
    for (size_t k = 0; k < order.size(); ++k) {
      cols[k].raw_item = item_map_[order[k]];
      cols[k].support = freq[order[k]];
      cols[k].tids = tdb.list(order[k]);
    }
    std::vector<Item> prefix;
    std::vector<Tid> scratch;
    MineClassTidStep(ctx_, cols, &prefix, &scratch, sink_, stats_);
    stats_->FinishPhase(PhaseId::kMine, mine_span);
  }

  EclatCtx ctx_;
  const Support min_support_;
  ItemsetSink* sink_;
  MineStats* stats_;
  std::vector<Item> item_map_;  // rank -> raw item id
};

}  // namespace

EclatMiner::EclatMiner(EclatOptions options) : options_(options) {}

Result<MineStats> EclatMiner::MineImpl(const Database& db,
                                       Support min_support,
                                       ItemsetSink* sink) {
  if (!PopcountStrategyAvailable(options_.popcount)) {
    return Status::InvalidArgument(
        std::string("popcount strategy unavailable on this machine: ") +
        PopcountStrategyName(options_.popcount));
  }
  MineStats stats;
  EclatRun run(options_, min_support, sink, &stats);
  run.Run(db);
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    return options_.cancel->ToStatus();
  }
  return stats;
}

}  // namespace fpm
