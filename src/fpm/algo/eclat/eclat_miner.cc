#include "fpm/algo/eclat/eclat_miner.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "fpm/bitvec/tidlist.h"
#include "fpm/bitvec/vertical.h"
#include "fpm/common/cancel.h"
#include "fpm/layout/lexicographic.h"
#include "fpm/obs/trace.h"
#include "fpm/layout/item_order.h"

namespace fpm {

const char* EclatRepresentationName(EclatRepresentation r) {
  switch (r) {
    case EclatRepresentation::kBitVector:
      return "bitvector";
    case EclatRepresentation::kTidList:
      return "tidlist";
    case EclatRepresentation::kDiffset:
      return "diffset";
    case EclatRepresentation::kAuto:
      return "auto";
  }
  return "?";
}

std::string EclatOptions::Suffix() const {
  std::string s;
  if (lexicographic_order) s += "+lex";
  if (zero_escaping) s += "+esc";
  if (popcount != PopcountStrategy::kLut16) {
    s += "+simd:";
    s += PopcountStrategyName(ResolvePopcountStrategy(popcount));
  }
  if (representation != EclatRepresentation::kBitVector) {
    s += "+repr:";
    s += EclatRepresentationName(representation);
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

// One itemset's tid list during the sparse DFS (P2 representation).
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
  // Tid/diffset paths: per-transaction weights, into the TidListDatabase.
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

// Sparse-representation step. With `diffsets`, columns below level 1
// carry d(P∪{x}) relative to the prefix (dEclat): combining member X
// (the new prefix element) with a later member Y produces
//   tidsets:  d(XY) = t(X) \ t(Y)
//   diffsets: d(PXY) = d(PY) \ d(PX)
// and support(·XY) = support(·X) - weight(diffset).
void MineClassTidStep(const EclatCtx& ctx,
                      const std::vector<TidColumn>& cols,
                      std::vector<Item>* prefix, std::vector<Tid>* scratch,
                      bool diffsets, bool cols_are_tidsets,
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
      TidColumn child;
      if (!diffsets) {
        const size_t cap = std::min(a.tids.size(), b.tids.size());
        if (scratch->size() < cap) scratch->resize(cap);
        Support support = 0;
        const size_t n = IntersectTidLists(a.tids, b.tids, ctx.weights,
                                           scratch->data(), &support);
        if (support < ctx.min_support) continue;
        child.support = support;
        child.owned.assign(scratch->begin(), scratch->begin() + n);
      } else {
        const std::span<const Tid> minuend =
            cols_are_tidsets ? a.tids : b.tids;
        const std::span<const Tid> subtrahend =
            cols_are_tidsets ? b.tids : a.tids;
        if (scratch->size() < minuend.size()) {
          scratch->resize(minuend.size());
        }
        Support diff_weight = 0;
        const size_t n =
            DifferenceTidLists(minuend, subtrahend, ctx.weights,
                               scratch->data(), &diff_weight);
        if (static_cast<uint64_t>(a.support) <
            static_cast<uint64_t>(ctx.min_support) + diff_weight) {
          continue;
        }
        child.support = a.support - diff_weight;
        child.owned.assign(scratch->begin(), scratch->begin() + n);
      }
      child.raw_item = b.raw_item;
      child.tids = std::span<const Tid>(child.owned);
      next.push_back(std::move(child));
    }
    if (!next.empty()) {
      // Below the first diffset level, columns are always diffsets.
      MineClassTidStep(ctx, next, prefix, scratch, diffsets,
                       /*cols_are_tidsets=*/false, sink, stats);
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
    while (num_frequent < freq.size() &&
           freq[num_frequent] >= min_support_) {
      ++num_frequent;
    }

    // P2: resolve the vertical representation. The tid list wins when
    // the frequent columns are sparse: 4 bytes per entry beats 1 bit per
    // row below a fill of ~1/32.
    EclatRepresentation repr = ctx_.options.representation;
    if (repr == EclatRepresentation::kAuto) {
      uint64_t entries = 0;
      for (size_t i = 0; i < num_frequent; ++i) entries += freq[i];
      const uint64_t cells =
          static_cast<uint64_t>(num_frequent) * ranked.total_weight();
      repr = (cells > 0 && entries * 32 < cells)
                 ? EclatRepresentation::kTidList
                 : EclatRepresentation::kBitVector;
    }
    if (repr == EclatRepresentation::kTidList ||
        repr == EclatRepresentation::kDiffset) {
      RunTidList(ranked, num_frequent,
                 /*diffsets=*/repr == EclatRepresentation::kDiffset);
      return;
    }

    // Build the vertical bit matrix (frequent columns only).
    PhaseSpan build_span(PhaseName(PhaseId::kBuild));
    VerticalDatabase vdb = VerticalDatabase::FromDatabase(ranked,
                                                          num_frequent);
    stats_->FinishPhase(PhaseId::kBuild, build_span);
    stats_->peak_structure_bytes = vdb.memory_bytes();

    PhaseSpan mine_span(PhaseName(PhaseId::kMine));
    // Top-level columns: frequent items only, ascending support (the
    // classic Eclat extension order — small intermediates first).
    std::vector<Item> items;
    for (Item i = 0; i < num_frequent; ++i) items.push_back(i);
    // Support ties break by rank so the extension order — and with it
    // the deterministic emission order — is independent of min_support:
    // the run at a higher threshold emits exactly the support-filtered
    // subsequence of the run at a lower one (the service's result-cache
    // dominance reuse depends on this).
    std::sort(items.begin(), items.end(), [&freq](Item a, Item b) {
      return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
    });

    std::vector<Column> cols(items.size());
    for (size_t k = 0; k < items.size(); ++k) {
      const Item i = items[k];
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

 private:
  // Sparse-representation mining path. With `diffsets`, level-1 columns
  // are tid lists and every deeper class switches to diffsets relative
  // to its prefix (dEclat).
  void RunTidList(const Database& ranked, size_t num_frequent,
                  bool diffsets) {
    PhaseSpan build_span(PhaseName(PhaseId::kBuild));
    TidListDatabase tdb =
        TidListDatabase::FromDatabase(ranked, num_frequent);
    stats_->FinishPhase(PhaseId::kBuild, build_span);
    stats_->peak_structure_bytes = tdb.memory_bytes();

    PhaseSpan mine_span(PhaseName(PhaseId::kMine));
    ctx_.weights = tdb.weights().data();
    const auto& freq = ranked.item_frequencies();
    std::vector<Item> items(num_frequent);
    for (size_t i = 0; i < num_frequent; ++i) items[i] = static_cast<Item>(i);
    // Rank tie-break as in the bit-vector path: keeps the emission order
    // independent of min_support.
    std::sort(items.begin(), items.end(), [&freq](Item a, Item b) {
      return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
    });

    std::vector<TidColumn> cols(items.size());
    for (size_t k = 0; k < items.size(); ++k) {
      cols[k].raw_item = item_map_[items[k]];
      cols[k].support = freq[items[k]];
      cols[k].tids = tdb.list(items[k]);
    }
    std::vector<Item> prefix;
    std::vector<Tid> scratch;
    MineClassTidStep(ctx_, cols, &prefix, &scratch, diffsets,
                     /*cols_are_tidsets=*/true, sink_, stats_);
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
