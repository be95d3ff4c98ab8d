// Mining result cache with support-dominance reuse across the whole
// MiningQuery task family.
//
// Keyed by (dataset digest, algorithm, effective pattern bits, task,
// per-task params, min_support). An exact hit replays the stored
// result. Beyond exact hits, the cache exploits support dominance: the
// frequent itemsets at threshold S are precisely the itemsets of any
// run at threshold S' <= S whose support is >= S, so a query can be
// answered by filtering a cached lower-threshold result — no mining at
// all. With tasks in the key, dominance also crosses tasks: a cached
// FREQUENT (or CLOSED) listing at S' <= S answers CLOSED, MAXIMAL,
// TOP_K and RULES queries at S by filtering plus the task's own
// post-pass. The full derivation matrix (query task <- source task):
//
//   FREQUENT <- FREQUENT   filter; gated by SupportsDominanceReuse
//                          (emission order must be S-independent)
//   CLOSED   <- CLOSED     filter (closedness is S-independent)
//            <- FREQUENT   filter + canonicalize + FilterClosed
//   MAXIMAL  <- CLOSED     filter + FilterMaximalFromClosed
//            <- FREQUENT   filter + canonicalize + FilterMaximal
//            (never MAXIMAL <- MAXIMAL: maximality is S-dependent)
//   TOP_K    <- FREQUENT   S' <= floor: filter + rank-sort + truncate;
//                          S' > floor also valid when the cached
//                          listing holds >= k entries (they then
//                          contain the global top k)
//   RULES    <- RULES      filter on itemset_support (subset supports
//                          are threshold-independent)
//            <- CLOSED     filter + GenerateRulesFromClosed
//            <- FREQUENT   filter + FilterClosed + rules
//
// Every derived result except FREQUENT's is in a canonical/sorted
// order, so no algorithm gate applies to the cross-task rows — only
// the FREQUENT emission-order contract needs SupportsDominanceReuse
// (holds for LCM and Eclat, not FP-Growth; see below).
//
// Byte-identity caveat (FREQUENT): the service promises results
// identical to a direct deterministic Mine(), including emission order.
// Dominance filtering preserves order only for kernels whose emission
// order is independent of min_support. That holds for LCM (frequency
// ranking and occurrence-deliver order never consult the threshold) and
// for Eclat (ascending-support item order with a rank tie-break, walked
// the same way by its bit-vector and tid-list layouts, so it holds even
// when the two thresholds pick different layouts), but
// NOT for FP-Growth: its single-path shortcut switches a subtree to
// subset-enumeration order, and whether a conditional tree is
// single-path depends on the threshold. SupportsDominanceReuse()
// encodes this; non-eligible algorithms fall back to exact hits only.
//
// Entries are ordered so that all thresholds of one (digest, algorithm,
// patterns, task, params) configuration are adjacent and ascending: a
// dominance scan is one bound probe plus a walk over the
// configuration's neighbors, and a cross-task scan re-probes with the
// source task substituted. Eviction is LRU by a byte budget.
//
// Locking: one mutex guards the entries and the counters. A derivation
// (filter, closure, top-k sort, rule generation: seconds on a large
// listing) runs with it released. Lookup picks the source entry and
// touches its LRU slot under the lock, derives with no lock held (the
// shared_ptr keeps the source alive through an eviction), then counts
// and memoizes under the lock again. Exact hits, other derivations,
// inserts and stats() proceed meanwhile. Two lookups may derive the
// same key at once; their answers are equal, and the later insert
// replaces the earlier.

#ifndef FPM_SERVICE_RESULT_CACHE_H_
#define FPM_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fpm/algo/itemset_sink.h"
#include "fpm/algo/miner.h"
#include "fpm/core/patterns.h"

namespace fpm {

class Counter;
class Gauge;

/// Whether `algorithm`'s emission order is min_support-independent,
/// making dominance-filtered FREQUENT cache answers byte-identical to a
/// fresh run (see the header comment).
bool SupportsDominanceReuse(Algorithm algorithm);

/// Identifies one cacheable query configuration. Query parameters
/// irrelevant to the task are zeroed (ForQuery does this) so equivalent
/// queries share an entry.
struct ResultCacheKey {
  std::string digest;       ///< dataset content digest
  Algorithm algorithm = Algorithm::kLcm;
  uint8_t pattern_bits = 0; ///< EffectivePatterns(...).bits()
  MiningTask task = MiningTask::kFrequent;
  uint64_t k = 0;                ///< kTopK only
  uint32_t max_consequent = 0;   ///< kRules only
  double min_confidence = 0.0;   ///< kRules only
  double min_lift = 0.0;         ///< kRules only
  Support min_support = 1;

  /// Builds the key for `query`, zeroing parameters the task ignores.
  static ResultCacheKey ForQuery(std::string digest, Algorithm algorithm,
                                 uint8_t pattern_bits,
                                 const MiningQuery& query);

  /// Same configuration = every field but min_support equal — the
  /// entries a dominance walk may draw from.
  bool SameConfig(const ResultCacheKey& other) const {
    return digest == other.digest && algorithm == other.algorithm &&
           pattern_bits == other.pattern_bits && task == other.task &&
           k == other.k && max_consequent == other.max_consequent &&
           min_confidence == other.min_confidence &&
           min_lift == other.min_lift;
  }

  /// Orders same-configuration entries adjacently, min_support
  /// ascending last — the layout the dominance scan relies on.
  bool operator<(const ResultCacheKey& other) const {
    if (digest != other.digest) return digest < other.digest;
    if (algorithm != other.algorithm) return algorithm < other.algorithm;
    if (pattern_bits != other.pattern_bits) {
      return pattern_bits < other.pattern_bits;
    }
    if (task != other.task) return task < other.task;
    if (k != other.k) return k < other.k;
    if (max_consequent != other.max_consequent) {
      return max_consequent < other.max_consequent;
    }
    if (min_confidence != other.min_confidence) {
      return min_confidence < other.min_confidence;
    }
    if (min_lift != other.min_lift) return min_lift < other.min_lift;
    return min_support < other.min_support;
  }
};

/// An immutable cached result, shared with every job replaying it.
/// Itemset tasks fill `itemsets` (FREQUENT preserves the kernel's
/// deterministic emission order; the other tasks their sorted orders);
/// kRules fills `rules`. `num_results` counts whichever is filled.
struct CachedResult {
  std::vector<CollectingSink::Entry> itemsets;
  std::vector<AssociationRule> rules;
  uint64_t num_results = 0;
  /// Database::total_weight() of the source dataset — what rule
  /// derivation from a cached CLOSED/FREQUENT listing needs.
  Support total_weight = 0;
  size_t bytes = 0;  ///< heap footprint, for the budget
};

struct ResultCacheLookup {
  std::shared_ptr<const CachedResult> result;  ///< null on miss
  bool exact = false;       ///< key matched including min_support
  bool dominated = false;   ///< derived from a same-task entry
  bool cross_task = false;  ///< derived from another task's entry
};

/// A reseeding source: a FREQUENT listing cached for a *parent dataset
/// version*, usable as a complete candidate border when mining the
/// child version (service.cc's reseed path).
struct ReseedSource {
  std::shared_ptr<const CachedResult> result;  ///< null when none found
  Support min_support = 0;  ///< threshold the source was mined at
};

struct ResultCacheStats {
  uint64_t hits = 0;             ///< exact hits
  uint64_t dominated_hits = 0;   ///< same-task dominance derivations
  uint64_t cross_task_hits = 0;  ///< cross-task derivations
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t resident_bytes = 0;
  size_t resident_entries = 0;
};

class ResultCache {
 public:
  /// `budget_bytes` bounds resident result bytes (0 = unlimited).
  explicit ResultCache(size_t budget_bytes = 0);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Exact lookup; when absent, walks the derivation matrix above for
  /// the best dominating entry (same task first, then cross-task
  /// sources). A derived answer is inserted under `key` so the
  /// filtering cost is paid once.
  ResultCacheLookup Lookup(const ResultCacheKey& key);

  /// Stores a freshly mined result. Overwrites an existing entry for
  /// the key (identical by construction — deterministic mining).
  void Insert(const ResultCacheKey& key,
              std::shared_ptr<const CachedResult> result);

  /// Finds a FREQUENT listing cached under `parent_digest` for the same
  /// (algorithm, patterns) configuration as `key`, at a threshold <=
  /// `max_source` — the candidate border for reseeding a child-version
  /// mine. `key` must be a FREQUENT key. Unlike Lookup()'s dominance
  /// rows, no SupportsDominanceReuse gate applies: the reseed path
  /// recounts every candidate's support over the delta and
  /// canonicalizes, so only candidate-set *completeness* matters, which
  /// any FREQUENT listing at or below max_source provides regardless of
  /// its emission order.
  ReseedSource FindSeed(const ResultCacheKey& key,
                        const std::string& parent_digest,
                        Support max_source);

  ResultCacheStats stats() const;

  /// Test hook: runs inside every derivation, after the source entry is
  /// picked and the lock released, before the derivation itself — a
  /// blocking hook holds a derivation in flight.
  void set_derive_hook_for_test(std::function<void()> hook) {
    derive_hook_for_test_ = std::move(hook);
  }

  /// Heap bytes a result with these itemsets occupies (key + vectors).
  static size_t EstimateBytes(const std::vector<CollectingSink::Entry>& v);

  /// Heap bytes of a full result, rules included.
  static size_t EstimateResultBytes(const CachedResult& result);

 private:
  struct Entry {
    std::shared_ptr<const CachedResult> result;
    uint64_t lru_seq = 0;
  };
  using EntryMap = std::map<ResultCacheKey, Entry>;

  /// A cached entry a derivation reads, and the task it was cached as.
  struct Source {
    std::shared_ptr<const CachedResult> result;  ///< null when none
    MiningTask task = MiningTask::kFrequent;
  };

  /// Best same-config entry with min_support <= probe's (the closest
  /// threshold, so the fewest surplus entries to filter), or nullptr.
  EntryMap::iterator FindBestAtOrBelowLocked(const ResultCacheKey& probe);

  /// The entry the derivation matrix answers `key` from (same task
  /// first, then cross-task sources), with its LRU slot touched; a null
  /// result when no usable entry exists.
  Source FindSourceLocked(const ResultCacheKey& key);

  /// Derives `key`'s answer from `source`, with no lock held. Null when
  /// the derivation fails (defensive: a filtered listing should always
  /// be complete), which the caller counts as a miss.
  static std::shared_ptr<CachedResult> Derive(const ResultCacheKey& key,
                                              const Source& source);

  void InsertLocked(const ResultCacheKey& key,
                    std::shared_ptr<const CachedResult> result);
  void EvictLocked();

  const size_t budget_bytes_;
  std::function<void()> derive_hook_for_test_;
  mutable std::mutex mu_;
  EntryMap entries_;
  uint64_t next_seq_ = 1;
  size_t resident_bytes_ = 0;
  ResultCacheStats stats_;

  // fpm.service.cache.* metrics.
  Counter* hits_counter_;
  Counter* dominated_counter_;
  Counter* cross_task_counter_;
  Counter* misses_counter_;
  Counter* evictions_counter_;
  Gauge* bytes_gauge_;
};

}  // namespace fpm

#endif  // FPM_SERVICE_RESULT_CACHE_H_
