// Listings for the tests of the query wire: a response's shared result
// built from literal entries or rules, and the JsonWriter form of an
// itemsets array, the oracle the protocol's one-pass itemsets encoder
// (fpm/service/protocol.cc) must match byte for byte.

#ifndef FPM_TESTS_TESTING_LISTING_TESTUTIL_H_
#define FPM_TESTS_TESTING_LISTING_TESTUTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fpm/algo/itemset_sink.h"
#include "fpm/algo/rules.h"
#include "fpm/common/json_writer.h"
#include "fpm/service/result_cache.h"

namespace fpm::testutil {

/// A cached result holding `itemsets`, as a MineResponse shares it.
inline std::shared_ptr<const CachedResult> Listing(
    std::vector<CollectingSink::Entry> itemsets) {
  auto result = std::make_shared<CachedResult>();
  result->num_results = itemsets.size();
  result->itemsets = std::move(itemsets);
  return result;
}

/// A cached result holding `rules`.
inline std::shared_ptr<const CachedResult> RuleListing(
    std::vector<AssociationRule> rules) {
  auto result = std::make_shared<CachedResult>();
  result->num_results = rules.size();
  result->rules = std::move(rules);
  return result;
}

/// [{"items":[...],"support":N},...] written value by value through
/// JsonWriter.
inline std::string ItemsetsJson(
    const std::vector<CollectingSink::Entry>& itemsets) {
  std::string out;
  JsonWriter w(&out);
  w.BeginArray();
  for (const auto& [items, support] : itemsets) {
    w.BeginObject().Key("items").BeginArray();
    for (Item item : items) w.Uint(item);
    w.EndArray();
    w.Key("support").Uint(support).EndObject();
  }
  w.EndArray();
  return out;
}

}  // namespace fpm::testutil

#endif  // FPM_TESTS_TESTING_LISTING_TESTUTIL_H_
