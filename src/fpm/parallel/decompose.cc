#include "fpm/parallel/decompose.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "fpm/layout/item_order.h"
#include "fpm/obs/metrics.h"
#include "fpm/parallel/thread_pool.h"

namespace fpm {
namespace {

// Runs fn(b) for every block b: as tasks on `pool` when given, else
// inline on the calling thread.
template <typename Fn>
void ForEachBlock(ThreadPool* pool, size_t num_blocks, const Fn& fn) {
  if (pool == nullptr) {
    for (size_t b = 0; b < num_blocks; ++b) fn(b);
    return;
  }
  TaskGroup group(pool);
  for (size_t b = 0; b < num_blocks; ++b) {
    group.Run([&fn, b] { fn(b); });
  }
  group.Wait();
}

// The ranked database's arrays, allocated once and written in place by
// the tid blocks, never zero-filled. The ranked database views the
// input's weights, so the storage holds the input as well.
struct RankedStorage final : DatabaseStorage {
  RankedStorage(const Database& db, size_t entries,
                std::vector<Support> supports)
      : input(db),
        num_entries(entries),
        items(std::make_unique_for_overwrite<Item[]>(entries)),
        offsets(std::make_unique_for_overwrite<size_t[]>(
            db.num_transactions() + 1)),
        frequencies(std::move(supports)) {}

  StorageKind kind() const override { return StorageKind::kMemory; }

  size_t resident_bytes() const override {
    return num_entries * sizeof(Item) +
           (input.num_transactions() + 1) * sizeof(size_t) +
           frequencies.size() * sizeof(Support);
  }

  size_t mapped_bytes() const override { return 0; }

  const Database input;
  const size_t num_entries;
  const std::unique_ptr<Item[]> items;
  const std::unique_ptr<size_t[]> offsets;
  const std::vector<Support> frequencies;
};

// Writes the ranks below `num_frequent` of `tx`'s items to `out`,
// ascending, and returns how many there are. The ranks are set in `bits`
// (all zero on entry and on return) and read back over the words between
// the lowest and the highest. When that span is wider than the
// transaction, or the transaction repeats an item (which a packed file
// may), they are sorted instead, so either way every rank is written.
uint32_t RankTransaction(std::span<const Item> tx,
                         const std::vector<Item>& to_rank, Item num_frequent,
                         uint64_t* bits, Item* out) {
  uint32_t n = 0;
  Item lo = num_frequent;
  Item hi = 0;
  for (Item it : tx) {
    const Item rank = to_rank[it];
    if (rank < num_frequent) {
      out[n++] = rank;
      lo = std::min(lo, rank);
      hi = std::max(hi, rank);
    }
  }
  if (n < 2) return n;
  const size_t lo_word = lo / 64;
  const size_t hi_word = hi / 64;
  if (hi_word - lo_word >= n) {
    std::sort(out, out + n);
    return n;
  }
  uint64_t repeated = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t bit = uint64_t{1} << (out[i] % 64);
    repeated |= bits[out[i] / 64] & bit;
    bits[out[i] / 64] |= bit;
  }
  if (repeated != 0) {
    std::fill(bits + lo_word, bits + hi_word + 1, 0);
    std::sort(out, out + n);
    return n;
  }
  Item* next = out;
  for (size_t word = lo_word; word <= hi_word; ++word) {
    for (uint64_t set = std::exchange(bits[word], 0); set != 0;
         set &= set - 1) {
      *next++ = static_cast<Item>(word * 64 + std::countr_zero(set));
    }
  }
  return n;
}

}  // namespace

size_t ClassDecomposition::memory_bytes() const {
  return ranked.resident_bytes() + rows().size_bytes() +
         row_begin.capacity() * sizeof(size_t);
}

ClassDecomposition DecomposeClasses(const Database& db, Support min_support,
                                    ThreadPool* pool) {
  ClassDecomposition out;
  const ItemOrder order = ItemOrder::ByDecreasingFrequency(db);
  const auto freq = db.item_frequencies();
  size_t num_frequent = 0;
  while (num_frequent < order.size() &&
         freq[order.ItemAt(num_frequent)] >= min_support) {
    ++num_frequent;
  }
  out.rank_to_item.assign(order.to_item().begin(),
                          order.to_item().begin() + num_frequent);
  std::vector<Support> class_supports;
  class_supports.reserve(num_frequent);
  for (Item raw : out.rank_to_item) class_supports.push_back(freq[raw]);

  // A few tid blocks per worker, so uneven blocks still balance, but no
  // more than the input fills: a block keeps two 8-byte counters per
  // frequent item, so it must hold at least 4 input items (16 bytes) per
  // frequent item. The counters then never outgrow the input.
  const size_t num_tx = db.num_transactions();
  const size_t max_blocks = std::min<size_t>(
      num_tx, db.num_entries() / (4 * std::max<size_t>(num_frequent, 1)));
  const size_t num_blocks =
      std::clamp<size_t>(pool != nullptr ? pool->num_workers() * 4 : 1, 1,
                         std::max<size_t>(max_blocks, 1));
  const auto block_begin = [&](size_t b) {
    return static_cast<Tid>(num_tx * b / num_blocks);
  };
  const std::vector<Item>& to_rank = order.to_rank();
  const Item num_ranks = static_cast<Item>(num_frequent);

  // Pass 0, per block: count the frequent entries, so each block's
  // ranked transactions get a base in the one items array.
  std::vector<size_t> block_base(num_blocks + 1, 0);
  ForEachBlock(pool, num_blocks, [&](size_t b) {
    size_t n = 0;
    for (Tid t = block_begin(b); t < block_begin(b + 1); ++t) {
      for (Item it : db.transaction(t)) n += to_rank[it] < num_ranks;
    }
    block_base[b + 1] = n;
  });
  std::partial_sum(block_base.begin(), block_base.end(), block_base.begin());
  auto storage = std::make_shared<RankedStorage>(db, block_base[num_blocks],
                                                 std::move(class_supports));
  Item* const items = storage->items.get();
  size_t* const offsets = storage->offsets.get();
  offsets[0] = 0;

  // Pass 1, per block: write every transaction's frequent ranks,
  // ascending, at the block's base, so the items before any member form
  // a prefix. Each member but the first owns one row (the prefix before
  // it); count each class's rows and entries in the block.
  std::vector<std::vector<size_t>> cursors(num_blocks);  // counts, then cursors
  std::vector<std::vector<uint64_t>> entries(num_blocks);
  ForEachBlock(pool, num_blocks, [&](size_t b) {
    std::vector<uint64_t> bits((num_frequent + 63) / 64, 0);
    std::vector<size_t>& count = cursors[b];
    std::vector<uint64_t>& entry = entries[b];
    count.assign(num_frequent, 0);
    entry.assign(num_frequent, 0);
    size_t at = block_base[b];
    for (Tid t = block_begin(b); t < block_begin(b + 1); ++t) {
      Item* tx = items + at;
      const uint32_t n = RankTransaction(db.transaction(t), to_rank,
                                         num_ranks, bits.data(), tx);
      for (uint32_t j = 1; j < n; ++j) {
        ++count[tx[j]];
        entry[tx[j]] += j;
      }
      at += n;
      offsets[t + 1] = at;
    }
  });
  const std::span<const Support> frequencies = storage->frequencies;
  out.ranked = Database::FromStorage(
      std::move(storage), {items, block_base[num_blocks]},
      {offsets, num_tx + 1}, db.weights(), frequencies, num_frequent,
      db.total_weight());

  // Class c's rows follow every earlier class's, and inside the class
  // block b's rows follow the earlier blocks'. Sum the counts and turn
  // them into each block's write cursors, reading each block's counts
  // front to back.
  out.row_begin.assign(num_frequent + 1, 0);
  out.class_entries.assign(num_frequent, 0);
  for (size_t b = 0; b < num_blocks; ++b) {
    for (size_t c = 0; c < num_frequent; ++c) {
      out.row_begin[c + 1] += cursors[b][c];
      out.class_entries[c] += entries[b][c];
    }
  }
  std::partial_sum(out.row_begin.begin(), out.row_begin.end(),
                   out.row_begin.begin());
  std::vector<size_t> next(out.row_begin.begin(), out.row_begin.end() - 1);
  for (std::vector<size_t>& cursor : cursors) {
    for (size_t c = 0; c < num_frequent; ++c) {
      cursor[c] = std::exchange(next[c], next[c] + cursor[c]);
    }
  }

  // Pass 2, per block: write every row, in tid order within each class.
  out.row_data =
      std::make_unique_for_overwrite<ClassRow[]>(out.row_begin.back());
  ClassRow* const rows = out.row_data.get();
  ForEachBlock(pool, num_blocks, [&](size_t b) {
    std::vector<size_t>& cursor = cursors[b];
    for (Tid t = block_begin(b); t < block_begin(b + 1); ++t) {
      const auto tx = out.ranked.transaction(t);
      for (uint32_t j = 1; j < tx.size(); ++j) {
        rows[cursor[tx[j]]++] = ClassRow{t, j};
      }
    }
  });

  // Class-size distribution: how balanced the decomposition is.
  MetricsRegistry& registry = MetricsRegistry::Default();
  if (registry.enabled()) {
    static Histogram* class_sizes = registry.GetHistogram(
        "fpm.parallel.class_entries",
        {0, 10, 100, 1000, 10000, 100000, 1000000});
    static Counter* classes = registry.GetCounter("fpm.parallel.classes");
    for (uint64_t n : out.class_entries) class_sizes->Observe(n);
    classes->Add(out.class_entries.size());
  }
  return out;
}

Database ProjectClass(const ClassDecomposition& decomp, Item c,
                      Support min_support) {
  const std::span<const ClassRow> rows = decomp.class_rows(c);
  const Database& ranked = decomp.ranked;

  // Count in place over the shared ranked database: the class's items
  // are the ranks before its owner.
  std::vector<Support> support(c, 0);
  for (const ClassRow& row : rows) {
    const Support w = ranked.weight(row.tid);
    for (Item it : ranked.transaction(row.tid).first(row.length)) {
      support[it] += w;
    }
  }

  // Copy out only the items frequent inside the class; every kernel
  // would drop the rest. Rows ascend by rank, so each scan stops at
  // `end`, one past the last frequent rank. `end` is searched for down
  // from the owner (c ranks) or over the class's entries, whichever are
  // fewer: walking down from every owner costs O(F^2) over F classes
  // when classes hold few entries. Without a frequent rank, no kernel
  // runs: build nothing.
  Item end = 0;
  if (decomp.class_entries[c] < c) {
    for (const ClassRow& row : rows) {
      for (Item it : ranked.transaction(row.tid).first(row.length)) {
        if (support[it] >= min_support) end = std::max(end, it + 1);
      }
    }
  } else {
    end = c;
    while (end > 0 && support[end - 1] < min_support) --end;
  }
  if (end == 0) return Database();
  DatabaseBuilder builder;
  std::vector<Item> kept;
  for (const ClassRow& row : rows) {
    kept.clear();
    for (Item it : ranked.transaction(row.tid).first(row.length)) {
      if (it >= end) break;
      if (support[it] >= min_support) kept.push_back(it);
    }
    builder.AddSortedTransaction(kept, ranked.weight(row.tid));
  }
  return builder.Build();
}

}  // namespace fpm
