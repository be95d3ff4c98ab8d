// Shared helpers for miner tests: small database literals, random and
// sparse database generation, Eclat's layout footprints, canonical
// mining wrappers for equivalence checks, and the closed/maximal
// oracles.

#ifndef FPM_TESTS_TESTING_DB_TESTUTIL_H_
#define FPM_TESTS_TESTING_DB_TESTUTIL_H_

#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/algo/itemset_sink.h"
#include "fpm/algo/miner.h"
#include "fpm/algo/postprocess.h"
#include "fpm/bitvec/tidlist.h"
#include "fpm/bitvec/vertical.h"
#include "fpm/common/rng.h"
#include "fpm/dataset/database.h"
#include "fpm/layout/item_order.h"

namespace fpm::testutil {

inline Database MakeDb(
    std::initializer_list<std::initializer_list<Item>> txs) {
  DatabaseBuilder b;
  for (const auto& tx : txs) b.AddTransaction(tx);
  return b.Build();
}

/// Knobs for random database generation.
struct RandomDbSpec {
  uint32_t num_transactions = 30;
  uint32_t num_items = 8;
  double avg_len = 4.0;
  uint64_t seed = 1;
  /// > 1 draws each transaction's weight from [1, max_weight].
  uint32_t max_weight = 1;
};

/// Uniform random database (no structure) — the adversarial input for
/// equivalence testing.
inline Database RandomDb(const RandomDbSpec& spec) {
  Rng rng(spec.seed);
  DatabaseBuilder b;
  std::vector<Item> tx;
  for (uint32_t t = 0; t < spec.num_transactions; ++t) {
    tx.clear();
    const uint32_t len =
        1 + rng.NextPoisson(spec.avg_len > 1 ? spec.avg_len - 1 : 0.0);
    for (uint32_t i = 0; i < len; ++i) {
      tx.push_back(static_cast<Item>(rng.NextBounded(spec.num_items)));
    }
    const Support weight =
        spec.max_weight > 1
            ? 1 + static_cast<Support>(rng.NextBounded(spec.max_weight))
            : 1;
    b.AddTransaction(tx, weight);  // duplicates removed by the builder
  }
  return b.Build();
}

/// Knobs for SparseDb.
struct SparseDbSpec {
  uint32_t num_transactions = 4096;
  uint32_t num_groups = 512;
  uint32_t dense_items = 0;
  uint32_t max_weight = 1;
  uint64_t seed = 1;
};

/// Sparse clustered database: each transaction draws 2-4 items (with
/// repeats) from one of `num_groups` groups of 4 consecutive ids, so
/// items co-occur inside their group while every column stays nearly
/// empty. `dense_items` more items (ids after the groups) form a dense
/// tier that stays frequent at supports no group item reaches:
/// transaction t holds dense item d when bits d and d+1 of t are clear,
/// so each is in every fourth transaction and the tier's itemsets tie
/// in support in many ways. With `max_weight` > 1 every transaction's
/// weight is drawn from [1, max_weight].
inline Database SparseDb(const SparseDbSpec& spec) {
  Rng rng(spec.seed);
  DatabaseBuilder b;
  std::vector<Item> tx;
  const Item first_dense = 4 * spec.num_groups;
  for (uint32_t t = 0; t < spec.num_transactions; ++t) {
    tx.clear();
    const Item group = 4 * static_cast<Item>(rng.NextBounded(spec.num_groups));
    const uint32_t len = 2 + static_cast<uint32_t>(rng.NextBounded(3));
    for (uint32_t i = 0; i < len; ++i) {
      tx.push_back(group + static_cast<Item>(rng.NextBounded(4)));
    }
    for (uint32_t d = 0; d < spec.dense_items; ++d) {
      if (((t >> d) & 3) == 0) tx.push_back(first_dense + d);
    }
    const Support weight =
        spec.max_weight > 1
            ? 1 + static_cast<Support>(rng.NextBounded(spec.max_weight))
            : 1;
    b.AddTransaction(tx, weight);  // duplicates removed by the builder
  }
  return b.Build();
}

/// Footprints of the two layouts Eclat can build for `db` at
/// `min_support`: the bit matrix and the tid lists of its frequent
/// items. An Eclat run's peak_structure_bytes is the one it picked.
struct EclatLayoutBytes {
  size_t bit_vectors = 0;
  size_t tid_lists = 0;
};

inline EclatLayoutBytes EclatFootprints(const Database& db,
                                        Support min_support) {
  const Database ranked =
      RemapItems(db, ItemOrder::ByDecreasingFrequency(db));
  const auto freq = ranked.item_frequencies();
  size_t num_frequent = 0;
  while (num_frequent < freq.size() && freq[num_frequent] >= min_support) {
    ++num_frequent;
  }
  return {VerticalDatabase::FromDatabase(ranked, num_frequent).memory_bytes(),
          TidListDatabase::FromDatabase(ranked, num_frequent).memory_bytes()};
}

/// Mines and returns the canonicalized (itemset, support) list.
inline std::vector<CollectingSink::Entry> MineCanonical(Miner& miner,
                                                        const Database& db,
                                                        Support min_support) {
  CollectingSink sink;
  const Status s = miner.Mine(db, min_support, &sink).status();
  EXPECT_TRUE(s.ok()) << miner.name() << ": " << s;
  sink.Canonicalize();
  return sink.results();
}

/// Oracle: the closed subset of `miner`'s complete frequent listing
/// (canonical order).
inline std::vector<CollectingSink::Entry> MineClosed(Miner& miner,
                                                     const Database& db,
                                                     Support min_support) {
  return FilterClosed(MineCanonical(miner, db, min_support));
}

/// Oracle: the maximal subset of `miner`'s complete frequent listing
/// (canonical order).
inline std::vector<CollectingSink::Entry> MineMaximal(Miner& miner,
                                                      const Database& db,
                                                      Support min_support) {
  return FilterMaximal(MineCanonical(miner, db, min_support));
}

/// EXPECT-level comparison with a readable diff on mismatch.
inline void ExpectSameResults(
    const std::vector<CollectingSink::Entry>& expected,
    const std::vector<CollectingSink::Entry>& actual,
    const std::string& label) {
  EXPECT_EQ(expected.size(), actual.size()) << label << ": itemset count";
  const size_t n = std::min(expected.size(), actual.size());
  size_t mismatches = 0;
  for (size_t i = 0; i < n && mismatches < 5; ++i) {
    if (expected[i] != actual[i]) {
      ++mismatches;
      std::string want, got;
      for (Item it : expected[i].first) want += std::to_string(it) + " ";
      for (Item it : actual[i].first) got += std::to_string(it) + " ";
      ADD_FAILURE() << label << ": entry " << i << " want {" << want << "}:"
                    << expected[i].second << " got {" << got
                    << "}:" << actual[i].second;
    }
  }
}

}  // namespace fpm::testutil

#endif  // FPM_TESTS_TESTING_DB_TESTUTIL_H_
