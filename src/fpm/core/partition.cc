#include "fpm/core/partition.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "fpm/algo/candidate_trie.h"
#include "fpm/core/mine.h"

namespace fpm {

namespace {

Status ValidateSlice(ShardSlice slice) {
  if (slice.count < 1 || slice.index >= slice.count) {
    return Status::InvalidArgument(
        "shard slice index " + std::to_string(slice.index) +
        " out of range for count " + std::to_string(slice.count));
  }
  return Status::OK();
}

// The slice's tid range [n*p/k, n*(p+1)/k).
std::pair<size_t, size_t> SliceBounds(const Database& db, ShardSlice slice) {
  const size_t n = db.num_transactions();
  return {n * slice.index / slice.count, n * (slice.index + 1) / slice.count};
}

}  // namespace

Database BuildShardPartition(const Database& db, ShardSlice slice,
                             Support* part_weight) {
  const auto [begin, end] = SliceBounds(db, slice);
  DatabaseBuilder builder;
  Support weight = 0;
  for (size_t t = begin; t < end; ++t) {
    builder.AddTransaction(db.transaction(static_cast<Tid>(t)),
                           db.weight(static_cast<Tid>(t)));
    weight += db.weight(static_cast<Tid>(t));
  }
  if (part_weight != nullptr) *part_weight = weight;
  return builder.Build();
}

Result<std::vector<CollectingSink::Entry>> MineShardPartition(
    const Database& db, ShardSlice slice, Support min_support,
    Algorithm algorithm, PatternSet patterns) {
  FPM_RETURN_IF_ERROR(ValidateSlice(slice));
  if (min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  Support part_weight = 0;
  Database part = BuildShardPartition(db, slice, &part_weight);
  if (part_weight == 0) return std::vector<CollectingSink::Entry>{};

  // ceil(min_support * part_weight / total_weight), at least 1 — the
  // SON local threshold; completeness of the candidate union depends
  // on this exact rounding.
  const Support total_weight = db.total_weight();
  const uint64_t scaled =
      (static_cast<uint64_t>(min_support) * part_weight + total_weight - 1) /
      total_weight;
  const Support local_support = scaled < 1 ? 1 : static_cast<Support>(scaled);

  FPM_ASSIGN_OR_RETURN(std::unique_ptr<Miner> miner,
                       CreateMiner(algorithm, patterns));
  CollectingSink sink;
  FPM_RETURN_IF_ERROR(miner->Mine(part, local_support, &sink).status());
  return std::move(sink.mutable_results());
}

Result<std::vector<Support>> CountShardPartition(
    const Database& db, ShardSlice slice,
    const std::vector<Itemset>& candidates) {
  FPM_RETURN_IF_ERROR(ValidateSlice(slice));
  const auto [begin, end] = SliceBounds(db, slice);
  return CountCandidates(db, begin, end, candidates);
}

std::vector<Itemset> MergeShardCandidates(
    std::vector<std::vector<CollectingSink::Entry>> locals) {
  std::unordered_set<Itemset, ItemsetHash> unioned;
  for (std::vector<CollectingSink::Entry>& local : locals) {
    for (CollectingSink::Entry& entry : local) {
      unioned.insert(std::move(entry.first));
    }
  }
  std::vector<Itemset> ordered(unioned.begin(), unioned.end());
  std::sort(ordered.begin(), ordered.end());
  return ordered;
}

std::vector<CollectingSink::Entry> MergeShardCounts(
    const std::vector<Itemset>& candidates,
    const std::vector<std::vector<Support>>& per_shard,
    Support min_support) {
  std::vector<CollectingSink::Entry> out;
  for (size_t i = 0; i < candidates.size(); ++i) {
    Support total = 0;
    for (const std::vector<Support>& counts : per_shard) {
      if (i < counts.size()) total += counts[i];
    }
    if (total >= min_support) out.emplace_back(candidates[i], total);
  }
  return out;
}

}  // namespace fpm
