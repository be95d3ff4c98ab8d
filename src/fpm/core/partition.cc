#include "fpm/core/partition.h"

#include <algorithm>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>

#include "fpm/algo/candidate_trie.h"
#include "fpm/core/mine.h"
#include "fpm/obs/trace.h"
#include "fpm/parallel/thread_pool.h"

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

PartitionedMiner::PartitionedMiner(PartitionOptions options)
    : options_(options) {}

std::string PartitionedMiner::name() const {
  return std::string("partition(") +
         std::to_string(options_.num_partitions) + "x" +
         AlgorithmName(options_.inner_algorithm) + ")";
}

Result<MineStats> PartitionedMiner::MineImpl(const Database& db,
                                             Support min_support,
                                             ItemsetSink* sink) {
  if (options_.num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  if (options_.execution.num_threads == 0) {
    return Status::InvalidArgument("ExecutionPolicy.num_threads must be >= 1");
  }
  MineStats stats;
  last_candidates_ = 0;
  PhaseSpan mine_span(PhaseName(PhaseId::kMine));

  const size_t n = db.num_transactions();
  const uint32_t k = static_cast<uint32_t>(
      std::min<size_t>(options_.num_partitions, n == 0 ? 1 : n));

  // ---- Phase 1: mine each slice at its scaled support. ---------------
  // Slices are independent, so with num_threads > 1 they run
  // concurrently on the pool, each into its own result list; the
  // candidate union is formed afterwards on the calling thread.
  std::vector<std::vector<CollectingSink::Entry>> locals(k);
  std::mutex err_mu;
  Status first_error = Status::OK();

  auto mine_partition = [&](uint32_t p) {
    ScopedSpan part_span("partition");
    part_span.AddArg("partition", p);
    Result<std::vector<CollectingSink::Entry>> local =
        MineShardPartition(db, {p, k}, min_support, options_.inner_algorithm,
                           options_.inner_patterns);
    if (local.ok()) {
      locals[p] = std::move(local).value();
      return;
    }
    std::lock_guard<std::mutex> lk(err_mu);
    if (first_error.ok()) first_error = local.status();
  };

  if (options_.execution.num_threads > 1 && k > 1) {
    ThreadPool pool(std::min(options_.execution.num_threads, k));
    for (uint32_t p = 0; p < k; ++p) {
      pool.Submit([&mine_partition, p] { mine_partition(p); });
    }
    pool.Wait();
  } else {
    for (uint32_t p = 0; p < k; ++p) mine_partition(p);
  }
  if (!first_error.ok()) return first_error;

  // ---- Phase 2: exact counting over the whole database. --------------
  ScopedSpan count_span("count_candidates");
  const std::vector<Itemset> candidates =
      MergeShardCandidates(std::move(locals));
  last_candidates_ = candidates.size();
  FPM_ASSIGN_OR_RETURN(std::vector<Support> counts,
                       CountShardPartition(db, {0, 1}, candidates));
  for (const auto& [set, support] :
       MergeShardCounts(candidates, {std::move(counts)}, min_support)) {
    sink->Emit(set, support);
    ++stats.num_frequent;
  }

  count_span.AddArg("candidates", last_candidates_);
  count_span.End();
  stats.FinishPhase(PhaseId::kMine, mine_span);
  return stats;
}

}  // namespace fpm
