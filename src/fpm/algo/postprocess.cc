#include "fpm/algo/postprocess.h"

#include <algorithm>
#include <unordered_map>

namespace fpm {
namespace {

// Marks, for every entry, whether some one-larger superset exists
// (keep_if(parent_support, child_support) decides whether the superset
// disqualifies the subset).
template <typename Disqualifies>
std::vector<CollectingSink::Entry> FilterBySupersets(
    const std::vector<CollectingSink::Entry>& all, Disqualifies disqualifies) {
  std::unordered_map<Itemset, size_t, ItemsetHash> index;
  index.reserve(all.size() * 2);
  for (size_t i = 0; i < all.size(); ++i) index.emplace(all[i].first, i);

  std::vector<bool> dead(all.size(), false);
  Itemset subset;
  for (const auto& [set, support] : all) {
    if (set.size() < 2) continue;
    subset.resize(set.size() - 1);
    for (size_t drop = 0; drop < set.size(); ++drop) {
      size_t out = 0;
      for (size_t i = 0; i < set.size(); ++i) {
        if (i != drop) subset[out++] = set[i];
      }
      const auto it = index.find(subset);
      // A complete frequent listing must contain every subset; tolerate
      // absence (caller gave a partial list) by skipping.
      if (it == index.end()) continue;
      if (disqualifies(all[it->second].second, support)) {
        dead[it->second] = true;
      }
    }
  }

  std::vector<CollectingSink::Entry> kept;
  for (size_t i = 0; i < all.size(); ++i) {
    if (!dead[i]) kept.push_back(all[i]);
  }
  return kept;
}

}  // namespace

std::vector<CollectingSink::Entry> FilterClosed(
    const std::vector<CollectingSink::Entry>& all_frequent) {
  return FilterBySupersets(
      all_frequent, [](Support subset_support, Support superset_support) {
        return subset_support == superset_support;
      });
}

std::vector<CollectingSink::Entry> FilterMaximal(
    const std::vector<CollectingSink::Entry>& all_frequent) {
  return FilterBySupersets(all_frequent,
                           [](Support, Support) { return true; });
}

std::vector<CollectingSink::Entry> FilterMaximalFromClosed(
    const std::vector<CollectingSink::Entry>& closed) {
  // Inverted index: item -> indices of closed sets containing it.
  std::unordered_map<Item, std::vector<size_t>> postings;
  for (size_t i = 0; i < closed.size(); ++i) {
    for (Item it : closed[i].first) postings[it].push_back(i);
  }

  std::vector<CollectingSink::Entry> kept;
  for (size_t i = 0; i < closed.size(); ++i) {
    const Itemset& set = closed[i].first;
    if (set.empty()) continue;
    // Scan the shortest posting list among the set's items.
    const std::vector<size_t>* shortest = nullptr;
    for (Item it : set) {
      const auto& list = postings[it];
      if (shortest == nullptr || list.size() < shortest->size()) {
        shortest = &list;
      }
    }
    bool maximal = true;
    for (size_t j : *shortest) {
      if (j == i) continue;
      const Itemset& other = closed[j].first;
      if (other.size() > set.size() &&
          std::includes(other.begin(), other.end(), set.begin(),
                        set.end())) {
        maximal = false;
        break;
      }
    }
    if (maximal) kept.push_back(closed[i]);
  }
  return kept;
}

}  // namespace fpm
