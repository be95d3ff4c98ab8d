#include "fpm/algo/miner.h"

#include <optional>
#include <utility>

#include "fpm/algo/postprocess.h"
#include "fpm/algo/topk.h"
#include "fpm/obs/metrics.h"
#include "fpm/obs/trace.h"

namespace fpm {
namespace {

// Per-call metrics. Function-local statics so registration (which takes
// the registry mutex) happens once per process, not once per Mine() —
// parallel per-class mining calls this from every worker.
void RecordMineMetrics(const MineStats& stats) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  if (!registry.enabled()) return;
  static Counter* calls = registry.GetCounter("fpm.mine.calls");
  static Counter* itemsets = registry.GetCounter("fpm.mine.itemsets");
  static Gauge* peak_bytes =
      registry.GetGauge("fpm.mine.peak_structure_bytes");
  static Histogram* itemsets_hist = registry.GetHistogram(
      "fpm.mine.itemsets_per_call",
      {1, 10, 100, 1000, 10000, 100000, 1000000});
  calls->Increment();
  itemsets->Add(stats.num_frequent);
  peak_bytes->UpdateMax(stats.peak_structure_bytes);
  itemsets_hist->Observe(stats.num_frequent);
}

// Replays a materialized listing into the caller's sink, preserving
// its order.
void Replay(const std::vector<CollectingSink::Entry>& entries,
            ItemsetSink* sink) {
  for (const CollectingSink::Entry& e : entries) {
    sink->Emit(e.first, e.second);
  }
}

// Mines the canonical closed-set listing at `min_support` into `*out`,
// through the algorithm's native closed kernel when it has one, else by
// filtering the full frequent listing.
Result<MineStats> MineClosedListing(Miner& miner, const Database& db,
                                    Support min_support,
                                    std::vector<CollectingSink::Entry>* out) {
  CollectingSink sink;
  MineStats stats;
  std::unique_ptr<Miner> native = miner.NativeClosedMiner();
  if (native != nullptr) {
    FPM_ASSIGN_OR_RETURN(stats, native->Mine(db, min_support, &sink));
    sink.Canonicalize();
    *out = std::move(sink.mutable_results());
  } else {
    FPM_ASSIGN_OR_RETURN(stats, miner.Mine(db, min_support, &sink));
    sink.Canonicalize();
    *out = FilterClosed(sink.results());
  }
  stats.num_frequent = out->size();
  return stats;
}

}  // namespace

std::string_view PhaseName(PhaseId phase) {
  switch (phase) {
    case PhaseId::kPrepare: return "prepare";
    case PhaseId::kBuild: return "build";
    case PhaseId::kMine: return "mine";
  }
  return "unknown";
}

Result<MineStats> Miner::Mine(const Database& db, const MiningQuery& query,
                              ItemsetSink* sink) {
  FPM_RETURN_IF_ERROR(query.Validate());
  if (sink == nullptr) return Status::InvalidArgument("sink is null");
  switch (query.task) {
    case MiningTask::kFrequent: {
      // Wrap the whole call in a span named after the configured miner.
      // The optional keeps the disabled path free of the name() string
      // build.
      std::optional<ScopedSpan> span;
      if (Tracer::Default().enabled()) {
        span.emplace(name());
      }
      Result<MineStats> result = MineImpl(db, query.min_support, sink);
      if (result.ok()) {
        if (span.has_value()) {
          span->AddArg("itemsets", result->num_frequent);
          span->AddArg("peak_structure_bytes", result->peak_structure_bytes);
        }
        RecordMineMetrics(*result);
      }
      return result;
    }
    case MiningTask::kClosed: {
      std::vector<CollectingSink::Entry> listing;
      FPM_ASSIGN_OR_RETURN(
          MineStats stats,
          MineClosedListing(*this, db, query.min_support, &listing));
      Replay(listing, sink);
      return stats;
    }
    case MiningTask::kMaximal: {
      std::vector<CollectingSink::Entry> listing;
      FPM_ASSIGN_OR_RETURN(
          MineStats stats,
          MineClosedListing(*this, db, query.min_support, &listing));
      const std::vector<CollectingSink::Entry> maximal =
          FilterMaximalFromClosed(listing);
      Replay(maximal, sink);
      stats.num_frequent = maximal.size();
      return stats;
    }
    case MiningTask::kTopK: {
      std::vector<CollectingSink::Entry> entries;
      FPM_ASSIGN_OR_RETURN(MineStats stats,
                           MineTopK(*this, db, query, &entries));
      Replay(entries, sink);
      return stats;
    }
    case MiningTask::kRules:
      return Status::InvalidArgument(
          "rules queries produce rules, not itemsets; call MineRules()");
  }
  return Status::InvalidArgument("unknown mining task");
}

Result<MineStats> Miner::MineRules(const Database& db,
                                   const MiningQuery& query,
                                   std::vector<AssociationRule>* rules) {
  if (query.task != MiningTask::kRules) {
    return Status::InvalidArgument("MineRules requires a rules query");
  }
  FPM_RETURN_IF_ERROR(query.Validate());
  if (rules == nullptr) return Status::InvalidArgument("rules is null");

  std::vector<CollectingSink::Entry> listing;
  FPM_ASSIGN_OR_RETURN(
      MineStats stats,
      MineClosedListing(*this, db, query.min_support, &listing));

  RuleOptions options;
  options.min_confidence = query.min_confidence;
  options.min_lift = query.min_lift;
  options.max_consequent = query.max_consequent;
  FPM_ASSIGN_OR_RETURN(
      *rules, GenerateRulesFromClosed(listing, db.total_weight(), options));
  stats.num_frequent = rules->size();
  return stats;
}

}  // namespace fpm
