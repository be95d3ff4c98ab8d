#include "fpm/algo/lcm/closed_miner.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "fpm/common/cancel.h"
#include "fpm/layout/item_order.h"
#include "fpm/obs/trace.h"

namespace fpm {
namespace {

// Conditional database: transactions as flat rank arrays (ascending
// within each transaction), with weights. Items are global frequency
// ranks throughout — the closed miner never remaps per level because
// the ppc test needs the global order.
struct Cdb {
  std::vector<Item> items;
  std::vector<uint32_t> offsets{0};
  std::vector<Support> weights;

  size_t num_tx() const { return weights.size(); }
  std::span<const Item> tx(uint32_t t) const {
    return {items.data() + offsets[t], offsets[t + 1] - offsets[t]};
  }
  void Add(std::span<const Item> tx_items, Support w) {
    items.insert(items.end(), tx_items.begin(), tx_items.end());
    offsets.push_back(static_cast<uint32_t>(items.size()));
    weights.push_back(w);
  }
};

// Merges identical transactions (summing weights) — the RmDupTrans step,
// which for closure mining also collapses the databases quickly because
// closure items have been removed.
Cdb MergeDuplicates(Cdb&& db) {
  Cdb merged;
  const size_t ntx = db.num_tx();
  size_t nbuckets = 16;
  while (nbuckets < ntx) nbuckets <<= 1;
  // bucket -> chain of merged indices (flat arrays, -1 terminated).
  std::vector<int32_t> heads(nbuckets, -1);
  std::vector<int32_t> next;
  for (uint32_t t = 0; t < ntx; ++t) {
    const auto tx = db.tx(t);
    const size_t bucket = ItemsetHash{}(tx) & (nbuckets - 1);
    int32_t found = -1;
    for (int32_t m = heads[bucket]; m != -1; m = next[m]) {
      const auto candidate = merged.tx(static_cast<uint32_t>(m));
      if (candidate.size() == tx.size() &&
          std::memcmp(candidate.data(), tx.data(),
                      tx.size() * sizeof(Item)) == 0) {
        found = m;
        break;
      }
    }
    if (found != -1) {
      merged.weights[found] += db.weights[t];
    } else {
      const int32_t idx = static_cast<int32_t>(merged.num_tx());
      merged.Add(tx, db.weights[t]);
      next.push_back(heads[bucket]);
      heads[bucket] = idx;
    }
  }
  return merged;
}

class ClosedRun {
 public:
  ClosedRun(Support min_support, const CancelToken* cancel,
            ItemsetSink* sink, MineStats* stats)
      : min_support_(min_support), cancel_(cancel), sink_(sink),
        stats_(stats) {}

  void Run(const Database& db) {
    PhaseSpan prep_span(PhaseName(PhaseId::kPrepare));
    ItemOrder order = ItemOrder::ByDecreasingFrequency(db);
    item_map_ = order.to_item();
    const auto& freq = db.item_frequencies();

    // Frequent ranks form a prefix of the rank space.
    num_ranks_ = 0;
    while (num_ranks_ < item_map_.size() &&
           freq[item_map_[num_ranks_]] >= min_support_) {
      ++num_ranks_;
    }

    Cdb root;
    Support total_weight = 0;
    {
      std::vector<Item> scratch;
      for (Tid t = 0; t < db.num_transactions(); ++t) {
        scratch.clear();
        for (Item raw : db.transaction(t)) {
          const Item rank = order.RankOf(raw);
          if (rank < num_ranks_) scratch.push_back(rank);
        }
        if (scratch.empty()) continue;
        std::sort(scratch.begin(), scratch.end());
        root.Add(scratch, db.weight(t));
        total_weight += db.weight(t);
      }
    }
    stats_->FinishPhase(PhaseId::kPrepare, prep_span);
    if (num_ranks_ == 0) return;

    PhaseSpan mine_span(PhaseName(PhaseId::kMine));
    // clo(∅): ranks present in every transaction (weighted).
    std::vector<Support> counts(num_ranks_, 0);
    for (uint32_t t = 0; t < root.num_tx(); ++t) {
      for (Item i : root.tx(t)) counts[i] += root.weights[t];
    }
    std::vector<Item> closed;
    for (Item i = 0; i < num_ranks_; ++i) {
      if (counts[i] == total_weight) closed.push_back(i);
    }
    if (!closed.empty() && total_weight >= min_support_) {
      Emit(closed, total_weight);
    }
    // Strip clo(∅) from the database and recurse with core = none.
    Cdb stripped = Strip(root, closed);
    Recurse(MergeDuplicates(std::move(stripped)), &closed,
            /*core=*/kInvalidItem);
    stats_->FinishPhase(PhaseId::kMine, mine_span);
  }

 private:
  // Removes the (sorted) `drop` items from every transaction; drops
  // transactions that become empty.
  static Cdb Strip(const Cdb& db, const std::vector<Item>& drop) {
    if (drop.empty()) {
      Cdb copy = db;  // cheap relative to mining; keeps call sites simple
      return copy;
    }
    Cdb out;
    std::vector<Item> scratch;
    for (uint32_t t = 0; t < db.num_tx(); ++t) {
      scratch.clear();
      const auto tx = db.tx(t);
      std::set_difference(tx.begin(), tx.end(), drop.begin(), drop.end(),
                          std::back_inserter(scratch));
      if (!scratch.empty()) out.Add(scratch, db.weights[t]);
    }
    return out;
  }

  void Emit(const std::vector<Item>& closed_ranks, Support support) {
    emit_scratch_.clear();
    for (Item rank : closed_ranks) {
      emit_scratch_.push_back(item_map_[rank]);
    }
    sink_->Emit(emit_scratch_, support);
    ++stats_->num_frequent;
  }

  // `db`: supporting transactions of `closed` with closed's items
  // removed. Extends with candidates of rank > core via ppc extensions.
  void Recurse(const Cdb& db, std::vector<Item>* closed, Item core) {
    if (db.num_tx() == 0) return;
    if (cancel_ != nullptr && cancel_->cancelled()) return;

    // Count every item; remember the touched set.
    std::vector<Support> counts(num_ranks_, 0);
    std::vector<Item> present;
    for (uint32_t t = 0; t < db.num_tx(); ++t) {
      const Support w = db.weights[t];
      for (Item i : db.tx(t)) {
        if (counts[i] == 0) present.push_back(i);
        counts[i] += w;
      }
    }
    std::sort(present.begin(), present.end());

    // Occurrence lists for candidate walks.
    std::vector<uint32_t> occ_len(num_ranks_, 0);
    for (uint32_t t = 0; t < db.num_tx(); ++t) {
      for (Item i : db.tx(t)) ++occ_len[i];
    }
    std::vector<uint32_t> occ_begin(num_ranks_ + 1, 0);
    for (Item i : present) {
      occ_begin[i + 1] = occ_len[i];
    }
    for (size_t i = 1; i <= num_ranks_; ++i) {
      occ_begin[i] += occ_begin[i - 1];
    }
    std::vector<uint32_t> occ(db.items.size());
    {
      std::vector<uint32_t> cursor(occ_begin.begin(), occ_begin.end() - 1);
      for (uint32_t t = 0; t < db.num_tx(); ++t) {
        for (Item i : db.tx(t)) occ[cursor[i]++] = t;
      }
    }

    std::vector<Support> cond_counts(num_ranks_, 0);
    std::vector<Item> cond_touched;
    std::vector<Item> extra;  // closure items > i
    for (Item i : present) {
      if (core != kInvalidItem && i <= core) continue;
      const Support support_q = counts[i];
      if (support_q < min_support_) continue;

      // Conditional counts over the transactions containing i.
      cond_touched.clear();
      for (uint32_t k = occ_begin[i]; k < occ_begin[i] + occ_len[i]; ++k) {
        const uint32_t t = occ[k];
        const Support w = db.weights[t];
        for (Item j : db.tx(t)) {
          if (j == i) continue;
          if (cond_counts[j] == 0) cond_touched.push_back(j);
          cond_counts[j] += w;
        }
      }

      // ppc test + closure items above i.
      bool ppc_ok = true;
      extra.clear();
      for (Item j : cond_touched) {
        if (cond_counts[j] == support_q) {
          if (j < i) {
            ppc_ok = false;
            break;
          }
          extra.push_back(j);
        }
      }
      if (ppc_ok) {
        std::sort(extra.begin(), extra.end());
        // Q = closed ∪ {i} ∪ extra (all ranks distinct by construction).
        const size_t base_size = closed->size();
        closed->push_back(i);
        closed->insert(closed->end(), extra.begin(), extra.end());
        Emit(*closed, support_q);

        // Child database: transactions containing i, keeping the items
        // frequent there but outside Q. Every j != i counted there has
        // cond_counts[j] <= support_q, with equality exactly for extra.
        Cdb child;
        std::vector<Item> scratch;
        for (uint32_t k = occ_begin[i]; k < occ_begin[i] + occ_len[i];
             ++k) {
          const uint32_t t = occ[k];
          scratch.clear();
          for (Item j : db.tx(t)) {
            if (j != i && cond_counts[j] >= min_support_ &&
                cond_counts[j] < support_q) {
              scratch.push_back(j);
            }
          }
          if (!scratch.empty()) child.Add(scratch, db.weights[t]);
        }
        Recurse(MergeDuplicates(std::move(child)), closed, i);
        closed->resize(base_size);
      }

      for (Item j : cond_touched) cond_counts[j] = 0;
    }
  }

  const Support min_support_;
  const CancelToken* cancel_;
  ItemsetSink* sink_;
  MineStats* stats_;
  std::vector<Item> item_map_;  // rank -> raw id
  size_t num_ranks_ = 0;
  std::vector<Item> emit_scratch_;
};

}  // namespace

Result<MineStats> LcmClosedMiner::MineImpl(const Database& db,
                                           Support min_support,
                                           ItemsetSink* sink) {
  MineStats stats;
  ClosedRun run(min_support, cancel_, sink, &stats);
  run.Run(db);
  if (cancel_ != nullptr && cancel_->cancelled()) return cancel_->ToStatus();
  return stats;
}

}  // namespace fpm
