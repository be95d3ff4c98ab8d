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
// (all zero on entry) and read back over the words between the lowest
// and the highest. When that span is wider than the transaction, or the
// transaction repeats an item (which a packed file may), they are sorted
// instead, so either way every rank is written. Without `keep`, `bits`
// is all zero again on return. With it, `bits` is the transaction's own
// rank bitmap: every rank is set in it and stays set, so a repeated rank
// always sets `*repeated`.
uint32_t RankTransaction(std::span<const Item> tx,
                         const std::vector<Item>& to_rank, Item num_frequent,
                         bool keep, uint64_t* bits, Item* out,
                         bool* repeated) {
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
  if (n == 0 || (n == 1 && !keep)) return n;
  const size_t lo_word = lo / 64;
  const size_t hi_word = hi / 64;
  const bool wide = hi_word - lo_word >= n;
  if (wide && !keep) {
    std::sort(out, out + n);
    return n;
  }
  uint64_t folded = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t bit = uint64_t{1} << (out[i] % 64);
    folded |= bits[out[i] / 64] & bit;
    bits[out[i] / 64] |= bit;
  }
  if (folded != 0 || wide) {
    if (!keep) std::fill(bits + lo_word, bits + hi_word + 1, 0);
    *repeated |= folded != 0;
    std::sort(out, out + n);
    return n;
  }
  Item* next = out;
  for (size_t word = lo_word; word <= hi_word; ++word) {
    uint64_t set = bits[word];
    if (!keep) bits[word] = 0;
    for (; set != 0; set &= set - 1) {
      *next++ = static_cast<Item>(word * 64 + std::countr_zero(set));
    }
  }
  return n;
}

// Builds class c's conditional database from its rows, keeping the ranks
// for which `frequent(rank)` holds. Rows ascend by rank, so each scan
// stops at `end`, one past the last frequent rank. `end` is searched for
// down from the owner (c ranks) or over the class's entries, whichever
// are fewer: walking down from every owner costs O(F^2) over F classes
// when classes hold few entries. Without a frequent rank, no kernel
// runs: build nothing.
template <typename Frequent>
Database CopyFrequent(const ClassDecomposition& decomp, Item c,
                      const Frequent& frequent) {
  const std::span<const ClassRow> rows = decomp.class_rows(c);
  const Database& ranked = decomp.ranked;
  Item end = 0;
  if (decomp.class_entries[c] < c) {
    for (const ClassRow& row : rows) {
      for (Item it : ranked.transaction(row.tid).first(row.length)) {
        if (frequent(it)) end = std::max(end, it + 1);
      }
    }
  } else {
    end = c;
    while (end > 0 && !frequent(end - 1)) --end;
  }
  if (end == 0) return Database();
  DatabaseBuilder builder;
  std::vector<Item> kept;
  for (const ClassRow& row : rows) {
    kept.clear();
    for (Item it : ranked.transaction(row.tid).first(row.length)) {
      if (it >= end) break;
      if (frequent(it)) kept.push_back(it);
    }
    builder.AddSortedTransaction(kept, ranked.weight(row.tid));
  }
  return builder.Build();
}

// Class c's (weighted) supports, counted row by row in place over the
// shared ranked database into this thread's counters. The counters are
// all zero between classes: a class sets only ranks below its owner and
// resets them when it goes, also when the copy throws. It resets the
// first c at once when its entries are at least that many, else entry by
// entry, so no class costs O(c) beyond its entries (WebDocs-sparse's
// 26,657 classes would zero-fill 355M counters per Mine()).
class RowCounts {
 public:
  RowCounts(const ClassDecomposition& decomp, Item c) : decomp_(decomp), c_(c) {
    thread_local std::vector<Support> counters;
    if (counters.size() < c) counters.resize(c);
    support_ = counters.data();
    const Database& ranked = decomp.ranked;
    for (const ClassRow& row : decomp.class_rows(c)) {
      const Support w = ranked.weight(row.tid);
      for (Item it : ranked.transaction(row.tid).first(row.length)) {
        support_[it] += w;
      }
    }
  }

  ~RowCounts() {
    if (decomp_.class_entries[c_] >= c_) {
      std::fill_n(support_, c_, Support{0});
      return;
    }
    for (const ClassRow& row : decomp_.class_rows(c_)) {
      for (Item it : decomp_.ranked.transaction(row.tid).first(row.length)) {
        support_[it] = 0;
      }
    }
  }

  RowCounts(const RowCounts&) = delete;
  RowCounts& operator=(const RowCounts&) = delete;

  Support operator[](Item rank) const { return support_[rank]; }

 private:
  const ClassDecomposition& decomp_;
  const Item c_;
  Support* support_ = nullptr;
};

// One carry-save adder over 64 bit positions: a + b + d as a sum bit
// (weight 1) and a carry bit (weight 2) per position.
inline void Csa(uint64_t a, uint64_t b, uint64_t d, uint64_t& sum,
                uint64_t& carry) {
  const uint64_t u = a ^ b;
  carry = (a & b) | (u & d);
  sum = u ^ d;
}

// The ranks below c whose count over class c's rows reaches min_support,
// as a bitmap of ceil(c / 64) words, counted from the rank bitmaps. Class
// c's row for transaction t is t's bitmap cut to those words: ranks
// ascend, so the ranks below c are exactly the prefix before the owner,
// and the bits at c and above in the last word are masked off at the end
// (no adder mixes bit positions). Each word position keeps its count as
// bit planes, plane j of weight 2^j: the ones, twos, fours and eights
// take 16 rows at a time through a Harley-Seal tree of carry-save
// adders, whose carry-out (the sixteens) ripples into k wider planes.
// A count is at most rows.size(), so the sixteens stay below 2^k for
// k = bit_width(rows / 16), and min_support <= rows.size() fits in the
// 4 + k planes. The comparison with min_support then walks the planes
// from the most significant one: `above` marks positions already known
// greater, `equal` those equal so far.
std::vector<uint64_t> FrequentRanks(const ClassDecomposition& decomp, Item c,
                                    Support min_support) {
  const std::span<const ClassRow> rows = decomp.class_rows(c);
  const size_t words = (size_t{c} + 63) / 64;
  const size_t stride = 4 + std::bit_width(rows.size() / 16);
  std::vector<uint64_t> planes(words * stride, 0);
  const std::vector<uint64_t> zeros(words, 0);  // pads the last group
  const uint64_t* row[16];
  for (size_t g = 0; g < rows.size(); g += 16) {
    for (size_t i = 0; i < 16; ++i) {
      row[i] = g + i < rows.size()
                   ? decomp.bitmaps.get() +
                         size_t{rows[g + i].tid} * decomp.bitmap_words
                   : zeros.data();
    }
    for (size_t w = 0; w < words; ++w) {
      uint64_t* const p = planes.data() + w * stride;
      uint64_t ones = p[0], twos = p[1], fours = p[2], eights = p[3];
      uint64_t twos_a, twos_b, fours_a, fours_b, eights_a, eights_b;
      uint64_t sixteens;
      Csa(ones, row[0][w], row[1][w], ones, twos_a);
      Csa(ones, row[2][w], row[3][w], ones, twos_b);
      Csa(twos, twos_a, twos_b, twos, fours_a);
      Csa(ones, row[4][w], row[5][w], ones, twos_a);
      Csa(ones, row[6][w], row[7][w], ones, twos_b);
      Csa(twos, twos_a, twos_b, twos, fours_b);
      Csa(fours, fours_a, fours_b, fours, eights_a);
      Csa(ones, row[8][w], row[9][w], ones, twos_a);
      Csa(ones, row[10][w], row[11][w], ones, twos_b);
      Csa(twos, twos_a, twos_b, twos, fours_a);
      Csa(ones, row[12][w], row[13][w], ones, twos_a);
      Csa(ones, row[14][w], row[15][w], ones, twos_b);
      Csa(twos, twos_a, twos_b, twos, fours_b);
      Csa(fours, fours_a, fours_b, fours, eights_b);
      Csa(eights, eights_a, eights_b, eights, sixteens);
      p[0] = ones;
      p[1] = twos;
      p[2] = fours;
      p[3] = eights;
      for (size_t j = 4; sixteens != 0 && j < stride; ++j) {
        const uint64_t carry = p[j] & sixteens;
        p[j] ^= sixteens;
        sixteens = carry;
      }
    }
  }
  std::vector<uint64_t> frequent(words);
  for (size_t w = 0; w < words; ++w) {
    const uint64_t* const p = planes.data() + w * stride;
    uint64_t above = 0;
    uint64_t equal = ~uint64_t{0};
    for (size_t j = stride; j-- > 0;) {
      if ((uint64_t{min_support} >> j) & 1) {
        equal &= p[j];
      } else {
        above |= equal & p[j];
        equal &= ~p[j];
      }
    }
    frequent[w] = above | equal;
  }
  if (c % 64 != 0) frequent[words - 1] &= (uint64_t{1} << (c % 64)) - 1;
  return frequent;
}

}  // namespace

size_t ClassDecomposition::memory_bytes() const {
  const size_t bitmap_bytes =
      bitmaps != nullptr
          ? ranked.num_transactions() * bitmap_words * sizeof(uint64_t)
          : 0;
  return ranked.resident_bytes() + rows().size_bytes() +
         row_begin.capacity() * sizeof(size_t) + bitmap_bytes;
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

  // The rank bitmaps are kept when the adders can count in their place:
  // the input is unweighted (the adders count rows, not weights), and
  // they take at most half as many words as there are ranked entries, so
  // never more bytes than the ranked items. A transaction that repeats a
  // rank drops them after pass 1: a bitmap folds the repeat, which the
  // row count adds twice.
  const size_t words = (num_frequent + 63) / 64;
  const bool keep_bitmaps =
      !db.has_weights() && 2 * num_tx * words <= block_base[num_blocks];
  if (keep_bitmaps) {
    out.bitmap_words = words;
    out.bitmaps = std::make_unique_for_overwrite<uint64_t[]>(num_tx * words);
  }
  std::vector<uint8_t> block_repeats(num_blocks, 0);

  // Pass 1, per block: write every transaction's frequent ranks,
  // ascending, at the block's base, so the items before any member form
  // a prefix, and with the bitmaps, its bitmap row, zero-filled just
  // before. Each member but the first owns one row (the prefix before
  // it), so a row never holds its class's owner: a repeated rank owns
  // no second row. Count each class's rows and entries in the block.
  std::vector<std::vector<size_t>> cursors(num_blocks);  // counts, then cursors
  std::vector<std::vector<uint64_t>> entries(num_blocks);
  ForEachBlock(pool, num_blocks, [&](size_t b) {
    uint64_t* const bitmaps = out.bitmaps.get();
    std::vector<uint64_t> scratch(keep_bitmaps ? 0 : words, 0);
    std::vector<size_t>& count = cursors[b];
    std::vector<uint64_t>& entry = entries[b];
    count.assign(num_frequent, 0);
    entry.assign(num_frequent, 0);
    bool repeated = false;
    size_t at = block_base[b];
    for (Tid t = block_begin(b); t < block_begin(b + 1); ++t) {
      Item* tx = items + at;
      uint64_t* const bits =
          keep_bitmaps ? bitmaps + size_t{t} * words : scratch.data();
      if (keep_bitmaps) std::fill_n(bits, words, 0);
      const uint32_t n =
          RankTransaction(db.transaction(t), to_rank, num_ranks, keep_bitmaps,
                          bits, tx, &repeated);
      for (uint32_t j = 1; j < n; ++j) {
        if (tx[j] == tx[j - 1]) continue;  // a repeat owns no second row
        ++count[tx[j]];
        entry[tx[j]] += j;
      }
      at += n;
      offsets[t + 1] = at;
    }
    block_repeats[b] = repeated;
  });
  if (std::find(block_repeats.begin(), block_repeats.end(), 1) !=
      block_repeats.end()) {
    out.bitmaps.reset();
    out.bitmap_words = 0;
  }
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
        if (tx[j] != tx[j - 1]) rows[cursor[tx[j]]++] = ClassRow{t, j};
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
  if (decomp.bitmaps != nullptr) {
    // Unweighted, so no count exceeds the class's rows: with fewer rows
    // than min_support nothing is frequent, and otherwise min_support
    // fits in the planes FrequentRanks keeps.
    if (decomp.class_rows(c).size() < min_support) return Database();
    const std::vector<uint64_t> frequent =
        FrequentRanks(decomp, c, min_support);
    return CopyFrequent(decomp, c, [&frequent](Item rank) {
      return ((frequent[rank / 64] >> (rank % 64)) & 1) != 0;
    });
  }
  const RowCounts support(decomp, c);
  return CopyFrequent(decomp, c, [&support, min_support](Item rank) {
    return support[rank] >= min_support;
  });
}

}  // namespace fpm
