#include "fpm/algo/lcm/lcm_miner.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "fpm/algo/lcm/closed_miner.h"
#include "fpm/common/arena.h"
#include "fpm/common/cancel.h"
#include "fpm/common/bits.h"
#include "fpm/common/prefetch.h"
#include "fpm/layout/item_order.h"
#include "fpm/mem/aggregation.h"
#include "fpm/obs/trace.h"

namespace fpm {

std::string LcmOptions::Suffix() const {
  std::string s;
  if (lexicographic_order) s += "+lex";
  if (bucket_aggregation) s += "+agg";
  if (counter_compaction) s += "+cmp";
  if (tiling) s += "+tile";
  if (wavefront_prefetch) s += "+wave";
  return s;
}

namespace {

// Level-local working database: items are dense level-local ids, sorted
// ascending (= decreasing global frequency) within each transaction.
struct WorkDb {
  std::vector<Item> items;
  std::vector<uint32_t> offsets{0};
  std::vector<Support> weights;
  uint32_t num_items = 0;

  size_t num_tx() const { return weights.size(); }
  std::span<const Item> tx(uint32_t t) const {
    return {items.data() + offsets[t], offsets[t + 1] - offsets[t]};
  }
  void Clear() {
    items.clear();
    offsets.assign(1, 0);
    weights.clear();
    num_items = 0;
  }
  size_t memory_bytes() const {
    return items.size() * sizeof(Item) + offsets.size() * sizeof(uint32_t) +
           weights.size() * sizeof(Support);
  }
};

// 32-byte occurrence column header, modeled on the original layout where
// the frequency counter is "structured with the OccArray" (§4.1): the
// baseline counting loop strides over these headers, touching one line
// per two items. Pattern P4 moves the counters into a dense array.
struct OccHeader {
  uint32_t count;         // weighted support at this level
  uint32_t occ_begin;     // slice of the flat occurrence array
  uint32_t occ_len;       // number of merged transactions containing item
  uint32_t cond_entries;  // total projected (conditional) entries
  uint32_t reserved[4];   // padding representative of the original's
                          // per-column bookkeeping fields
};
static_assert(sizeof(OccHeader) == 32, "baseline header must be 32 bytes");

bool SpanEquals(std::span<const Item> a, std::span<const Item> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Item)) == 0;
}

constexpr uint32_t kL1TileEntriesDefault = 4096;  // 16 KiB of items
// P7.1 wave-front distances, in occurrence entries ahead: the far wave
// fetches a transaction's offset slot, the near wave its payload.
constexpr uint32_t kPrefetchNear = 4;
constexpr uint32_t kPrefetchFar = 8;
constexpr uint64_t kTileBatchEntryBudget = 16u << 20;  // 64 MiB of items

// All mutable state of one Mine() call.
class LcmRun {
 public:
  LcmRun(const LcmOptions& options, Support min_support, ItemsetSink* sink,
         MineStats* stats)
      : options_(options),
        min_support_(min_support),
        sink_(sink),
        stats_(stats) {}

  // Builds the level-0 working database and mines it.
  void Run(const Database& db) {
    PhaseSpan prep_span(PhaseName(PhaseId::kPrepare));
    ItemOrder order = ItemOrder::ByDecreasingFrequency(db);

    // Global frequent ranks.
    const auto& freq = db.item_frequencies();
    std::vector<Item> rank_to_local(freq.size(), kInvalidItem);
    std::vector<Item> item_map;  // local -> raw item id
    for (Item r = 0; r < order.size(); ++r) {
      const Item raw = order.ItemAt(r);
      if (freq[raw] >= min_support_) {
        rank_to_local[r] = static_cast<Item>(item_map.size());
        item_map.push_back(raw);
      } else {
        break;  // ranks are sorted by frequency; the rest are infrequent
      }
    }

    WorkDb work;
    work.num_items = static_cast<uint32_t>(item_map.size());
    std::vector<Item> scratch;
    for (Tid t = 0; t < db.num_transactions(); ++t) {
      scratch.clear();
      for (Item it : db.transaction(t)) {
        const Item local = rank_to_local[order.RankOf(it)];
        if (local != kInvalidItem) scratch.push_back(local);
      }
      if (scratch.empty()) continue;
      std::sort(scratch.begin(), scratch.end());
      work.items.insert(work.items.end(), scratch.begin(), scratch.end());
      work.offsets.push_back(static_cast<uint32_t>(work.items.size()));
      work.weights.push_back(db.weight(t));
    }

    if (options_.lexicographic_order) SortLexicographically(&work);
    stats_->FinishPhase(PhaseId::kPrepare, prep_span);

    PhaseSpan mine_span(PhaseName(PhaseId::kMine));
    std::vector<Item> prefix;
    MineLevel(work, item_map, &prefix, /*depth=*/0);
    stats_->FinishPhase(PhaseId::kMine, mine_span);
  }

  // One recursion level: count (CalcFreq), emit, filter+merge
  // (RmDupTrans), occurrence-deliver, and project each item's
  // conditional database.
  void MineLevel(const WorkDb& db, const std::vector<Item>& item_map,
                 std::vector<Item>* prefix, int depth) {
    if (db.num_items == 0 || db.num_tx() == 0) return;
    if (Cancelled()) return;

    // --- CalcFreq: weighted frequency counting. -------------------------
    std::vector<OccHeader> headers(db.num_items);
    std::vector<uint32_t> compact_counts;
    if (options_.counter_compaction) {
      // P4: counters compacted into one dense array; the counting loop
      // strides over 4-byte slots instead of 32-byte headers.
      compact_counts.assign(db.num_items, 0);
      uint32_t* counts = compact_counts.data();
      const size_t ntx = db.num_tx();
      for (uint32_t t = 0; t < ntx; ++t) {
        const Support w = db.weights[t];
        for (Item it : db.tx(t)) counts[it] += w;
      }
      for (uint32_t i = 0; i < db.num_items; ++i) headers[i].count = counts[i];
    } else {
      const size_t ntx = db.num_tx();
      for (uint32_t t = 0; t < ntx; ++t) {
        const Support w = db.weights[t];
        for (Item it : db.tx(t)) headers[it].count += w;
      }
    }

    // --- Emit frequent items; build the level's frequent list. ----------
    std::vector<Item> frequent;
    for (Item i = 0; i < db.num_items; ++i) {
      if (headers[i].count >= min_support_) {
        frequent.push_back(i);
        prefix->push_back(item_map[i]);
        sink_->Emit(*prefix, headers[i].count);
        ++stats_->num_frequent;
        prefix->pop_back();
      }
    }
    if (frequent.size() < 2) return;  // no extension possible

    // --- RmDupTrans: filter to frequent items, merge duplicates. --------
    std::vector<Item> new_local(db.num_items, kInvalidItem);
    std::vector<Item> new_map(frequent.size());
    for (size_t k = 0; k < frequent.size(); ++k) {
      new_local[frequent[k]] = static_cast<Item>(k);
      new_map[k] = item_map[frequent[k]];
    }
    WorkDb merged;
    merged.num_items = static_cast<uint32_t>(frequent.size());
    if (options_.bucket_aggregation) {
      MergeDuplicates<AggregatedList<uint32_t>>(db, new_local, &merged);
    } else {
      MergeDuplicates<LinkedList<uint32_t>>(db, new_local, &merged);
    }
    if (depth == 0) {
      stats_->peak_structure_bytes =
          std::max(stats_->peak_structure_bytes,
                   merged.memory_bytes() + headers.size() * sizeof(OccHeader));
    }

    // --- Occurrence deliver: build the item-major OccArray. -------------
    std::vector<uint32_t> occ;
    BuildOccArray(merged, headers.data(), &occ);

    // --- Project and recurse. --------------------------------------------
    if (options_.tiling && depth == 0) {
      ProjectTiled(merged, headers.data(), occ, new_map, prefix, depth);
    } else {
      WorkDb cond;
      for (uint32_t k = 1; k < merged.num_items; ++k) {
        if (Cancelled()) return;
        cond.Clear();
        ProjectItem(merged, headers[k], occ, k, &cond);
        if (cond.num_tx() == 0) continue;
        prefix->push_back(new_map[k]);
        MineLevel(cond, new_map, prefix, depth + 1);
        prefix->pop_back();
      }
    }
  }

 private:
  bool Cancelled() const {
    return options_.cancel != nullptr && options_.cancel->cancelled();
  }

  // P1: sorts the level-0 transactions lexicographically in place.
  void SortLexicographically(WorkDb* work) {
    const size_t n = work->num_tx();
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), [work](uint32_t a, uint32_t b) {
      const auto ta = work->tx(a);
      const auto tb = work->tx(b);
      return std::lexicographical_compare(ta.begin(), ta.end(), tb.begin(),
                                          tb.end());
    });
    WorkDb sorted;
    sorted.num_items = work->num_items;
    sorted.items.reserve(work->items.size());
    sorted.weights.reserve(n);
    for (uint32_t t : perm) {
      const auto tx = work->tx(t);
      sorted.items.insert(sorted.items.end(), tx.begin(), tx.end());
      sorted.offsets.push_back(static_cast<uint32_t>(sorted.items.size()));
      sorted.weights.push_back(work->weights[t]);
    }
    *work = std::move(sorted);
  }

  // Filters each transaction to the level's frequent items (remapped to
  // dense ids) and merges identical results, summing weights. Duplicate
  // detection uses bucket hashing with per-bucket chains: the linked
  // structure pattern P3 aggregates.
  template <typename Chain>
  void MergeDuplicates(const WorkDb& db, const std::vector<Item>& new_local,
                       WorkDb* merged) {
    const size_t ntx = db.num_tx();
    size_t nbuckets = 16;
    while (nbuckets < ntx) nbuckets <<= 1;
    const uint64_t mask = nbuckets - 1;

    Arena arena;
    std::vector<Chain> buckets(nbuckets, Chain(&arena));
    std::vector<Item> scratch;
    for (uint32_t t = 0; t < ntx; ++t) {
      scratch.clear();
      for (Item it : db.tx(t)) {
        const Item local = new_local[it];
        if (local != kInvalidItem) scratch.push_back(local);
      }
      if (scratch.empty()) continue;
      const Support w = db.weights[t];
      Chain& chain = buckets[ItemsetHash{}(scratch) & mask];
      uint32_t found = kInvalidItem;
      chain.ForEach([&](uint32_t candidate) {
        if (found == kInvalidItem &&
            SpanEquals(merged->tx(candidate), scratch)) {
          found = candidate;
        }
      });
      if (found != kInvalidItem) {
        merged->weights[found] += w;
      } else {
        const uint32_t idx = static_cast<uint32_t>(merged->num_tx());
        merged->items.insert(merged->items.end(), scratch.begin(),
                             scratch.end());
        merged->offsets.push_back(static_cast<uint32_t>(merged->items.size()));
        merged->weights.push_back(w);
        chain.PushBack(idx);
      }
    }
  }

  // Builds the flat, item-major occurrence array: headers[i] gets the
  // slice [occ_begin, occ_begin+occ_len) of `occ` listing the merged
  // transactions containing i (ascending tid), plus the total number of
  // conditional entries item i's projection will produce.
  void BuildOccArray(const WorkDb& merged, OccHeader* headers,
                     std::vector<uint32_t>* occ) {
    const uint32_t m = merged.num_items;
    for (uint32_t i = 0; i < m; ++i) {
      headers[i].occ_len = 0;
      headers[i].cond_entries = 0;
    }
    const size_t ntx = merged.num_tx();
    for (uint32_t t = 0; t < ntx; ++t) {
      for (Item it : merged.tx(t)) ++headers[it].occ_len;
    }
    uint32_t total = 0;
    for (uint32_t i = 0; i < m; ++i) {
      headers[i].occ_begin = total;
      total += headers[i].occ_len;
    }
    occ->resize(total);
    std::vector<uint32_t> cursor(m);
    for (uint32_t i = 0; i < m; ++i) cursor[i] = headers[i].occ_begin;
    for (uint32_t t = 0; t < ntx; ++t) {
      const auto tx = merged.tx(t);
      for (size_t pos = 0; pos < tx.size(); ++pos) {
        const Item it = tx[pos];
        (*occ)[cursor[it]++] = t;
        headers[it].cond_entries += static_cast<uint32_t>(pos);
      }
    }
  }

  // Projects item k's conditional database: for every merged transaction
  // containing k, the (ascending) items before k. Optionally applies the
  // P7.1 wave-front prefetch schedule over the occurrence slice.
  void ProjectItem(const WorkDb& merged, const OccHeader& header,
                   const std::vector<uint32_t>& occ, uint32_t k,
                   WorkDb* cond) {
    cond->num_items = k;
    const uint32_t begin = header.occ_begin;
    const uint32_t end = begin + header.occ_len;
    const uint32_t* offsets = merged.offsets.data();
    const Item* items = merged.items.data();
    const bool wave = options_.wavefront_prefetch;
    for (uint32_t idx = begin; idx < end; ++idx) {
      if (wave) {
        // Far wave: pull in the transaction-header (offset) slot.
        if (idx + kPrefetchFar < end) {
          Prefetch(&offsets[occ[idx + kPrefetchFar]]);
        }
        // Near wave: pull in the transaction payload; its offset was
        // fetched by the far wave several iterations ago.
        if (idx + kPrefetchNear < end) {
          Prefetch(&items[offsets[occ[idx + kPrefetchNear]]]);
        }
      }
      const uint32_t tid = occ[idx];
      const Item* p = items + offsets[tid];
      const size_t before = cond->items.size();
      while (*p != k) cond->items.push_back(*p++);
      if (cond->items.size() != before) {
        cond->offsets.push_back(static_cast<uint32_t>(cond->items.size()));
        cond->weights.push_back(merged.weights[tid]);
      }
    }
  }

  // P6.1 — tiled projection of the top level. Items are processed in
  // batches whose conditional databases fit a memory budget; within a
  // batch, an outer loop walks L1-sized transaction tiles and an inner
  // loop advances every batch item's occurrence cursor through the tile,
  // so each transaction is served to all batch items while cached.
  void ProjectTiled(const WorkDb& merged, const OccHeader* headers,
                    const std::vector<uint32_t>& occ,
                    const std::vector<Item>& new_map,
                    std::vector<Item>* prefix, int depth) {
    const uint32_t m = merged.num_items;
    const uint32_t tile_entries = options_.tile_entries != 0
                                      ? options_.tile_entries
                                      : kL1TileEntriesDefault;

    // Tile boundaries (by merged transaction index) sized so one tile's
    // item payload is about `tile_entries` entries.
    std::vector<uint32_t> tile_ends;
    {
      uint32_t acc = 0;
      const size_t ntx = merged.num_tx();
      for (uint32_t t = 0; t < ntx; ++t) {
        acc += static_cast<uint32_t>(merged.tx(t).size());
        if (acc >= tile_entries) {
          tile_ends.push_back(t + 1);
          acc = 0;
        }
      }
      if (tile_ends.empty() || tile_ends.back() != ntx) {
        tile_ends.push_back(static_cast<uint32_t>(ntx));
      }
    }

    uint32_t k = 1;
    std::vector<WorkDb> conds;
    std::vector<uint32_t> cursors;
    while (k < m) {
      // Grow the batch until its conditional databases would exceed the
      // entry budget (always at least one item).
      uint32_t k_end = k;
      uint64_t batch_entries = 0;
      while (k_end < m &&
             (k_end == k ||
              batch_entries + headers[k_end].cond_entries <=
                  kTileBatchEntryBudget)) {
        batch_entries += headers[k_end].cond_entries;
        ++k_end;
      }

      const uint32_t batch = k_end - k;
      conds.assign(batch, WorkDb());
      cursors.resize(batch);
      for (uint32_t b = 0; b < batch; ++b) {
        conds[b].num_items = k + b;
        conds[b].items.reserve(headers[k + b].cond_entries);
        cursors[b] = headers[k + b].occ_begin;
      }

      for (uint32_t tile_end : tile_ends) {
        for (uint32_t b = 0; b < batch; ++b) {
          const uint32_t item = k + b;
          const uint32_t occ_end =
              headers[item].occ_begin + headers[item].occ_len;
          uint32_t& cur = cursors[b];
          WorkDb& cond = conds[b];
          while (cur < occ_end && occ[cur] < tile_end) {
            const uint32_t tid = occ[cur++];
            const Item* p = merged.items.data() + merged.offsets[tid];
            const size_t before = cond.items.size();
            while (*p != item) cond.items.push_back(*p++);
            if (cond.items.size() != before) {
              cond.offsets.push_back(
                  static_cast<uint32_t>(cond.items.size()));
              cond.weights.push_back(merged.weights[tid]);
            }
          }
        }
      }

      for (uint32_t b = 0; b < batch; ++b) {
        if (Cancelled()) return;
        if (conds[b].num_tx() == 0) continue;
        prefix->push_back(new_map[k + b]);
        MineLevel(conds[b], new_map, prefix, depth + 1);
        prefix->pop_back();
        conds[b].Clear();
      }
      k = k_end;
    }
  }

  const LcmOptions& options_;
  const Support min_support_;
  ItemsetSink* sink_;
  MineStats* stats_;
};

}  // namespace

LcmMiner::LcmMiner(LcmOptions options) : options_(options) {}

std::unique_ptr<Miner> LcmMiner::NativeClosedMiner() const {
  return std::make_unique<LcmClosedMiner>(options_.cancel);
}

Result<MineStats> LcmMiner::MineImpl(const Database& db,
                                     Support min_support,
                                     ItemsetSink* sink) {
  MineStats stats;
  LcmRun run(options_, min_support, sink, &stats);
  run.Run(db);
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    return options_.cancel->ToStatus();
  }
  return stats;
}

}  // namespace fpm
