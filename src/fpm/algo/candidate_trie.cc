#include "fpm/algo/candidate_trie.h"

#include <algorithm>
#include <string>

#include "fpm/common/logging.h"

namespace fpm {

void CandidateTrie::Insert(std::span<const Item> candidate, uint32_t index) {
  FPM_CHECK(InsertOrFind(candidate, index) == index)
      << "duplicate candidate insertion";
}

uint32_t CandidateTrie::InsertOrFind(std::span<const Item> candidate,
                                     uint32_t index) {
  FPM_CHECK(!candidate.empty()) << "empty candidate";
  uint32_t cur = 0;
  for (Item it : candidate) {
    Node& node = nodes_[cur];
    auto pos = std::lower_bound(node.labels.begin(), node.labels.end(), it);
    const size_t idx = static_cast<size_t>(pos - node.labels.begin());
    if (pos == node.labels.end() || *pos != it) {
      const uint32_t child = static_cast<uint32_t>(nodes_.size());
      // Insert into the node's arrays before push_back may invalidate
      // the `node` reference.
      nodes_[cur].labels.insert(nodes_[cur].labels.begin() + idx, it);
      nodes_[cur].children.insert(nodes_[cur].children.begin() + idx, child);
      nodes_.push_back(Node{});
      cur = child;
    } else {
      cur = node.children[idx];
    }
  }
  if (nodes_[cur].candidate == kNoCandidate) nodes_[cur].candidate = index;
  return nodes_[cur].candidate;
}

void CandidateTrie::CountTransaction(std::span<const Item> tx,
                                     Support weight,
                                     std::vector<Support>* counts) const {
  Walk(0, tx, weight, counts);
}

void CandidateTrie::Walk(uint32_t node_id, std::span<const Item> tx,
                         Support weight,
                         std::vector<Support>* counts) const {
  const Node& node = nodes_[node_id];
  if (node.candidate != kNoCandidate) {
    (*counts)[node.candidate] += weight;
  }
  if (node.labels.empty()) return;
  // Advance through the transaction, descending on matching labels.
  size_t li = 0;
  for (size_t ti = 0; ti < tx.size() && li < node.labels.size(); ++ti) {
    while (li < node.labels.size() && node.labels[li] < tx[ti]) ++li;
    if (li < node.labels.size() && node.labels[li] == tx[ti]) {
      Walk(node.children[li], tx.subspan(ti + 1), weight, counts);
      ++li;
    }
  }
}

Result<std::vector<Support>> CountCandidates(
    const Database& db, std::span<const Itemset> candidates) {
  std::vector<Support> counts(candidates.size(), 0);
  if (candidates.empty()) return counts;

  const auto invalid = [](size_t i, const std::string& what) {
    return Status::InvalidArgument("candidate " + std::to_string(i) + " " +
                                   what);
  };
  CandidateTrie trie;
  Itemset sorted;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].empty()) return invalid(i, "is empty");
    sorted.assign(candidates[i].begin(), candidates[i].end());
    std::sort(sorted.begin(), sorted.end());
    const auto repeat = std::adjacent_find(sorted.begin(), sorted.end());
    if (repeat != sorted.end()) {
      return invalid(i, "repeats item " + std::to_string(*repeat));
    }
    const uint32_t index = static_cast<uint32_t>(i);
    const uint32_t first = trie.InsertOrFind(sorted, index);
    if (first != index) {
      return invalid(i, "duplicates candidate " + std::to_string(first));
    }
  }

  std::vector<Item> sorted_tx;
  for (size_t t = 0; t < db.num_transactions(); ++t) {
    const auto tx = db.transaction(static_cast<Tid>(t));
    sorted_tx.assign(tx.begin(), tx.end());
    std::sort(sorted_tx.begin(), sorted_tx.end());
    trie.CountTransaction(sorted_tx, db.weight(static_cast<Tid>(t)), &counts);
  }
  return counts;
}

}  // namespace fpm
