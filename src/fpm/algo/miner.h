// Common miner interface. Each algorithm (LCM-style array miner, Eclat,
// FP-Growth, Apriori, brute force) implements MineImpl(); pattern
// toggles live in per-algorithm option structs, and the core front-end
// (fpm/core/mine.h) maps a PatternSet onto them.

#ifndef FPM_ALGO_MINER_H_
#define FPM_ALGO_MINER_H_

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fpm/common/status.h"
#include "fpm/dataset/database.h"
#include "fpm/algo/itemset_sink.h"
#include "fpm/algo/query.h"
#include "fpm/algo/rules.h"
#include "fpm/obs/trace.h"

namespace fpm {

/// The three wall-clock phases every kernel reports. Matches the span
/// names ("prepare"/"build"/"mine") the kernels emit to the tracer.
enum class PhaseId {
  kPrepare = 0,  ///< layout transforms (e.g. P1 sort)
  kBuild = 1,    ///< data structure construction
  kMine = 2,     ///< the recursive mining phase
};

inline constexpr int kNumPhases = 3;

/// Span/metric name of a phase ("prepare", "build", "mine").
std::string_view PhaseName(PhaseId phase);

/// Named counter deltas attributed to one phase — hardware-counter
/// readings ("cycles", "cache_misses", ...) latched by the installed
/// PhaseSampler (fpm/obs/phase_sampler.h, fpm/perf/perf_sampler.h).
/// Empty when no sampler is installed.
using PhaseCounterDeltas = std::vector<std::pair<std::string, uint64_t>>;

/// Instrumentation returned by Mine(). Phase timings feed the Figure 2
/// CPI bench; memory feeds the aggregation-cost discussion of §4.3;
/// phase counter tables feed the per-pattern architecture claims
/// ("prefetch cuts L2 misses") when hardware counters are sampled.
///
/// Phase semantics differ for parallel runs (ExecutionPolicy with
/// num_threads > 1): prepare (the class decomposition) and mine (the
/// class tasks through the merge) are wall time of the Mine() call, but
/// build is kernel construction time summed over all class tasks, so it
/// can exceed the wall time. peak_structure_bytes is then the shared
/// ranked database and class row index plus the largest single task's
/// conditional database and kernel structure; the decomposition's
/// per-block counters, freed before the class tasks start, are left out.
struct MineStats {
  uint64_t num_frequent = 0;       ///< itemsets emitted
  size_t peak_structure_bytes = 0; ///< main data structure footprint

  /// Wall seconds spent in `phase` during the Mine() call.
  double phase_seconds(PhaseId phase) const {
    return phase_seconds_[static_cast<int>(phase)];
  }

  void set_phase_seconds(PhaseId phase, double seconds) {
    phase_seconds_[static_cast<int>(phase)] = seconds;
  }

  void add_phase_seconds(PhaseId phase, double seconds) {
    phase_seconds_[static_cast<int>(phase)] += seconds;
  }

  double total_seconds() const {
    double total = 0.0;
    for (double s : phase_seconds_) total += s;
    return total;
  }

  /// Sampler counter deltas of `phase`; empty unless a PhaseSampler was
  /// installed while the phase ran.
  const PhaseCounterDeltas& phase_counters(PhaseId phase) const {
    return phase_counters_[static_cast<int>(phase)];
  }

  /// True when any phase carries counter deltas.
  bool has_phase_counters() const {
    for (const PhaseCounterDeltas& d : phase_counters_) {
      if (!d.empty()) return true;
    }
    return false;
  }

  /// Accumulates `deltas` into the phase's table (summing by name, so a
  /// kernel re-entering a phase aggregates instead of overwriting).
  void MergePhaseCounters(PhaseId phase, const PhaseCounterDeltas& deltas) {
    PhaseCounterDeltas& table = phase_counters_[static_cast<int>(phase)];
    for (const auto& [name, value] : deltas) {
      bool found = false;
      for (auto& [have, sum] : table) {
        if (have == name) {
          sum += value;
          found = true;
          break;
        }
      }
      if (!found) table.emplace_back(name, value);
    }
  }

  /// Ends `span`, adds its wall seconds to `phase`, and merges the
  /// counter deltas it latched. The one call every kernel makes when a
  /// phase closes.
  void FinishPhase(PhaseId phase, PhaseSpan& span) {
    add_phase_seconds(phase, span.End());
    MergePhaseCounters(phase, span.counter_deltas());
  }

 private:
  std::array<double, kNumPhases> phase_seconds_{};
  std::array<PhaseCounterDeltas, kNumPhases> phase_counters_{};
};

/// How a Mine() call executes.
///
/// `num_threads == 1` runs the sequential kernel unchanged. Larger
/// values decompose the search space into independent first-item
/// equivalence classes and mine them on a work-stealing pool
/// (fpm/parallel/nested_miner.h), one task per class, each running the
/// sequential kernel. `num_threads == 0` is rejected as
/// InvalidArgument. The MineStats of a parallel run report prepare and
/// mine as wall time and build summed over tasks (see MineStats).
struct ExecutionPolicy {
  uint32_t num_threads = 1;
  /// When true (the default), parallel runs buffer per-class results and
  /// merge them in class order, so the emission order into the sink is
  /// reproducible run-to-run and the canonicalized output is identical
  /// to the sequential run's. When false, each class task forwards its
  /// itemsets to the sink while it runs, in batches of 4,096 (serialized,
  /// but in nondeterministic order) — a few batches in memory instead of
  /// the whole answer, same set of itemsets.
  bool deterministic = true;
};

/// Abstract pattern miner. The base enumeration contract is frequent
/// itemsets; the MiningQuery front-end dispatches the whole task family
/// (closed/maximal/top-k/rules) onto execution paths built from it.
///
/// Contract (kFrequent): emits every itemset (size >= 1) whose weighted
/// support is >= min_support, exactly once, with its exact support, in
/// original item ids. min_support must be >= 1.
class Miner {
 public:
  virtual ~Miner() = default;

  /// Executes `query` against `db`, emitting the task's answer into
  /// `sink`. Per-task execution path and emission order:
  ///
  ///   kFrequent  the kernel itself; deterministic kernel emission order
  ///   kClosed    NativeClosedMiner() when the algorithm has one (LCM's
  ///              ppc-extension kernel), else the full frequent listing
  ///              filtered by FilterClosed; canonical order either way
  ///   kMaximal   the closed listing filtered by
  ///              FilterMaximalFromClosed; canonical order
  ///   kTopK      iterative threshold-tightening driver over the
  ///              frequent kernel (fpm/algo/topk.h); support descending,
  ///              canonical itemset ascending on ties
  ///   kRules     rejected — rules are not itemsets; call MineRules()
  ///
  /// MineStats::num_frequent is the number of entries emitted for the
  /// task (e.g. the closed-set count for kClosed).
  Result<MineStats> Mine(const Database& db, const MiningQuery& query,
                         ItemsetSink* sink);

  /// Pre-MiningQuery surface: mines all frequent itemsets at threshold
  /// `min_support`. Thin shim over the query overload; prefer
  /// Mine(db, MiningQuery::Frequent(s), sink) in new code.
  ///
  /// Observability: when the default tracer is enabled the call is
  /// wrapped in a span named name(); kernels nest "prepare"/"build"/
  /// "mine" phase spans inside it. When the default metrics registry is
  /// enabled, per-call counters/gauges (fpm.mine.calls,
  /// fpm.mine.itemsets, fpm.mine.peak_structure_bytes, ...) are
  /// recorded. Both default to off and cost ~one branch each when off.
  Result<MineStats> Mine(const Database& db, Support min_support,
                         ItemsetSink* sink) {
    return Mine(db, MiningQuery::Frequent(min_support), sink);
  }

  /// Executes a kRules query: a closed-set run at query.min_support,
  /// then GenerateRulesFromClosed with the query's confidence/lift
  /// thresholds. `*rules` receives the rules in the deterministic
  /// RuleOutranks order; MineStats::num_frequent is the rule count.
  Result<MineStats> MineRules(const Database& db, const MiningQuery& query,
                              std::vector<AssociationRule>* rules);

  /// Display name including the active pattern configuration.
  virtual std::string name() const = 0;

  /// A dedicated closed-itemset kernel for this algorithm, or null when
  /// there is none and kClosed/kMaximal/kRules queries fall back to
  /// filtering the full frequent listing. LCM overrides this with the
  /// ppc-extension closed miner, which never materializes the frequent
  /// listing.
  virtual std::unique_ptr<Miner> NativeClosedMiner() const {
    return nullptr;
  }

 protected:
  /// Algorithm body. `min_support >= 1` and `sink != nullptr` are
  /// already validated. Returns the stats of the run.
  virtual Result<MineStats> MineImpl(const Database& db, Support min_support,
                                     ItemsetSink* sink) = 0;
};

}  // namespace fpm

#endif  // FPM_ALGO_MINER_H_
