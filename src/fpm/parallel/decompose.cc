#include "fpm/parallel/decompose.h"

#include <algorithm>
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

}  // namespace

size_t ClassDecomposition::memory_bytes() const {
  return ranked.resident_bytes() + rows.capacity() * sizeof(ClassRow) +
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
  for (Item raw : out.rank_to_item) out.class_supports.push_back(freq[raw]);

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

  // Pass 1, per block: rank every transaction and cut it to its frequent
  // ranks, ascending, so the items before any member form a prefix. Each
  // member but the first owns one row (the prefix before it); count each
  // class's rows and entries in the block.
  std::vector<Database> blocks(num_blocks);
  std::vector<std::vector<size_t>> cursors(num_blocks);  // counts, then cursors
  std::vector<std::vector<uint64_t>> entries(num_blocks);
  ForEachBlock(pool, num_blocks, [&](size_t b) {
    DatabaseBuilder builder;
    std::vector<Item> tx;
    std::vector<size_t>& count = cursors[b];
    std::vector<uint64_t>& entry = entries[b];
    count.assign(num_frequent, 0);
    entry.assign(num_frequent, 0);
    for (Tid t = block_begin(b); t < block_begin(b + 1); ++t) {
      tx.clear();
      for (Item it : db.transaction(t)) {
        const Item rank = order.RankOf(it);
        if (rank < num_frequent) tx.push_back(rank);
      }
      std::sort(tx.begin(), tx.end());
      builder.AddSortedTransaction(tx, db.weight(t));
      for (size_t j = 1; j < tx.size(); ++j) {
        ++count[tx[j]];
        entry[tx[j]] += j;
      }
    }
    blocks[b] = builder.Build();
  });

  // Join the blocks in tid order. Class c's rows follow every earlier
  // class's, and inside the class block b's rows follow the earlier
  // blocks'. Sum the counts and turn them into each block's write
  // cursors, reading each block's counts front to back.
  DatabaseBuilder joined;
  for (const Database& block : blocks) joined.AddDatabase(block);
  blocks.clear();
  out.ranked = joined.Build();
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
  out.rows.resize(out.row_begin[num_frequent]);

  // Pass 2, per block: fill the rows, in tid order within each class.
  ForEachBlock(pool, num_blocks, [&](size_t b) {
    std::vector<size_t>& cursor = cursors[b];
    for (Tid t = block_begin(b); t < block_begin(b + 1); ++t) {
      const auto tx = out.ranked.transaction(t);
      for (uint32_t j = 1; j < tx.size(); ++j) {
        out.rows[cursor[tx[j]]++] = ClassRow{t, j};
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
  // would drop the rest. Rows ascend by rank, so each scan stops at the
  // last frequent rank.
  Item end = c;
  while (end > 0 && support[end - 1] < min_support) --end;
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
