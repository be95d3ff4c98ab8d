// The class decomposition's rows and conditional databases counted from
// the raw transactions, for checking either form of the decomposition
// (fpm/parallel/decompose.h) row for row and ProjectClass database for
// database whichever way it counted a class.

#ifndef FPM_TESTS_TESTING_CLASS_TESTUTIL_H_
#define FPM_TESTS_TESTING_CLASS_TESTUTIL_H_

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/dataset/database.h"
#include "fpm/layout/item_order.h"

namespace fpm::testutil {

/// One row of a class counted from the raw transactions: transaction
/// `tid`'s ranks before the class owner, ascending.
struct ReferenceRow {
  Tid tid;
  std::vector<Item> prefix;
};

/// The rows of every class of `db` with its items ranked by decreasing
/// frequency and cut to the ranks of support >= `rank_support`: each
/// transaction's ranks ascending (a repeated item keeps its repeat), and
/// every member but the first owns the prefix before it as a row of its
/// class, once (a repeat owns no second row), in tid order.
inline std::vector<std::vector<ReferenceRow>> ReferenceClassRows(
    const Database& db, Support rank_support) {
  const ItemOrder order = ItemOrder::ByDecreasingFrequency(db);
  const auto freq = db.item_frequencies();
  Item num_frequent = 0;
  while (num_frequent < order.size() &&
         freq[order.ItemAt(num_frequent)] >= rank_support) {
    ++num_frequent;
  }
  std::vector<std::vector<ReferenceRow>> rows(num_frequent);
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    std::vector<Item> ranks;
    for (Item it : db.transaction(t)) {
      if (order.to_rank()[it] < num_frequent) {
        ranks.push_back(order.to_rank()[it]);
      }
    }
    std::sort(ranks.begin(), ranks.end());
    for (size_t j = 1; j < ranks.size(); ++j) {
      if (ranks[j] == ranks[j - 1]) continue;
      rows[ranks[j]].push_back(
          {t, std::vector<Item>(ranks.begin(), ranks.begin() + j)});
    }
  }
  return rows;
}

/// Every class of `db` (see ReferenceClassRows) keeps its rows' ranks
/// whose weighted count over the class reaches `class_support`, one
/// transaction per row in tid order; a class with no such rank is an
/// empty database.
inline std::vector<Database> ReferenceClasses(const Database& db,
                                              Support rank_support,
                                              Support class_support) {
  const std::vector<std::vector<ReferenceRow>> rows =
      ReferenceClassRows(db, rank_support);
  std::vector<Database> classes;
  for (Item c = 0; c < rows.size(); ++c) {
    std::vector<Support> support(c, 0);
    for (const ReferenceRow& row : rows[c]) {
      for (Item it : row.prefix) support[it] += db.weight(row.tid);
    }
    if (std::none_of(support.begin(), support.end(),
                     [&](Support s) { return s >= class_support; })) {
      classes.emplace_back();
      continue;
    }
    DatabaseBuilder b;
    for (const ReferenceRow& row : rows[c]) {
      std::vector<Item> kept;
      for (Item it : row.prefix) {
        if (support[it] >= class_support) kept.push_back(it);
      }
      b.AddSortedTransaction(kept, db.weight(row.tid));
    }
    classes.push_back(b.Build());
  }
  return classes;
}

/// EXPECTs that two databases hold the same transactions, weights,
/// frequencies and item universe.
inline void ExpectSameDatabase(const Database& want, const Database& got,
                               const std::string& label) {
  const auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  EXPECT_EQ(want.num_transactions(), got.num_transactions()) << label;
  EXPECT_TRUE(same(want.items(), got.items())) << label << ": items";
  EXPECT_TRUE(same(want.offsets(), got.offsets())) << label << ": offsets";
  EXPECT_TRUE(same(want.weights(), got.weights())) << label << ": weights";
  EXPECT_TRUE(same(want.item_frequencies(), got.item_frequencies()))
      << label << ": frequencies";
  EXPECT_EQ(want.num_items(), got.num_items()) << label;
  EXPECT_EQ(want.total_weight(), got.total_weight()) << label;
}

}  // namespace fpm::testutil

#endif  // FPM_TESTS_TESTING_CLASS_TESTUTIL_H_
