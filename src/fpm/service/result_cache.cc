#include "fpm/service/result_cache.h"

#include <algorithm>
#include <utility>

#include "fpm/algo/postprocess.h"
#include "fpm/algo/rules.h"
#include "fpm/obs/metrics.h"

namespace fpm {
namespace {

// Entries of `source` with support >= min_support, order preserved.
std::vector<CollectingSink::Entry> FilterBySupport(
    const std::vector<CollectingSink::Entry>& source, Support min_support) {
  std::vector<CollectingSink::Entry> kept;
  for (const CollectingSink::Entry& e : source) {
    if (e.second >= min_support) kept.push_back(e);
  }
  return kept;
}

// The kTopK answer ordering (matches topk.cc): support descending,
// canonical itemset ascending within equal support.
bool TopKOutranks(const CollectingSink::Entry& a,
                  const CollectingSink::Entry& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

// A FREQUENT listing is kernel emission order; the closed/maximal
// post-filters need canonical order.
std::vector<CollectingSink::Entry> Canonicalized(
    std::vector<CollectingSink::Entry> entries) {
  std::sort(entries.begin(), entries.end());
  return entries;
}

}  // namespace

bool SupportsDominanceReuse(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kLcm:
    case Algorithm::kEclat:
      return true;
    default:
      return false;
  }
}

ResultCacheKey ResultCacheKey::ForQuery(std::string digest,
                                        Algorithm algorithm,
                                        uint8_t pattern_bits,
                                        const MiningQuery& query) {
  ResultCacheKey key;
  key.digest = std::move(digest);
  key.algorithm = algorithm;
  key.pattern_bits = pattern_bits;
  key.task = query.task;
  key.min_support = query.min_support;
  if (query.task == MiningTask::kTopK) key.k = query.k;
  if (query.task == MiningTask::kRules) {
    key.max_consequent = query.max_consequent;
    key.min_confidence = query.min_confidence;
    key.min_lift = query.min_lift;
  }
  return key;
}

ResultCache::ResultCache(size_t budget_bytes) : budget_bytes_(budget_bytes) {
  MetricsRegistry& m = MetricsRegistry::Default();
  hits_counter_ = m.GetCounter("fpm.service.cache.hits");
  dominated_counter_ = m.GetCounter("fpm.service.cache.dominated_hits");
  cross_task_counter_ = m.GetCounter("fpm.service.cache.cross_task_hits");
  misses_counter_ = m.GetCounter("fpm.service.cache.misses");
  evictions_counter_ = m.GetCounter("fpm.service.cache.evictions");
  bytes_gauge_ = m.GetGauge("fpm.service.cache.bytes");
}

size_t ResultCache::EstimateBytes(
    const std::vector<CollectingSink::Entry>& v) {
  size_t bytes = sizeof(CachedResult) + v.capacity() * sizeof(v[0]);
  for (const CollectingSink::Entry& e : v) {
    bytes += e.first.capacity() * sizeof(Item);
  }
  return bytes;
}

size_t ResultCache::EstimateResultBytes(const CachedResult& result) {
  size_t bytes = EstimateBytes(result.itemsets);
  bytes += result.rules.capacity() * sizeof(AssociationRule);
  for (const AssociationRule& r : result.rules) {
    bytes += (r.antecedent.capacity() + r.consequent.capacity()) *
             sizeof(Item);
  }
  return bytes;
}

ResultCache::EntryMap::iterator ResultCache::FindBestAtOrBelowLocked(
    const ResultCacheKey& probe) {
  // Same-configuration entries sort adjacently with min_support
  // ascending last, so the entry just before upper_bound(probe) is the
  // highest threshold <= probe's — the closest dominating source, with
  // the fewest surplus entries to filter.
  auto ub = entries_.upper_bound(probe);
  if (ub == entries_.begin()) return entries_.end();
  auto prev = std::prev(ub);
  if (!prev->first.SameConfig(probe)) return entries_.end();
  return prev;
}

ResultCache::Source ResultCache::FindSourceLocked(const ResultCacheKey& key) {
  // Probe key for a potential source entry of task `t` in the same
  // (digest, algorithm, patterns) configuration, with the parameters
  // that task ignores zeroed — mirroring ForQuery.
  const auto probe = [&key](MiningTask t) {
    ResultCacheKey p = key;
    p.task = t;
    if (t != MiningTask::kTopK) p.k = 0;
    if (t != MiningTask::kRules) {
      p.max_consequent = 0;
      p.min_confidence = 0.0;
      p.min_lift = 0.0;
    }
    return p;
  };
  // The closest entry at or below the key's threshold cached as task
  // `t`, its LRU slot touched; none if absent.
  const auto at_or_below = [this, &probe](MiningTask t) {
    const auto it = FindBestAtOrBelowLocked(probe(t));
    if (it == entries_.end()) return Source{};
    it->second.lru_seq = next_seq_++;
    return Source{it->second.result, t};
  };

  switch (key.task) {
    case MiningTask::kFrequent:
      // Emission order must survive the filter — algorithm-gated.
      if (!SupportsDominanceReuse(key.algorithm)) return Source{};
      return at_or_below(MiningTask::kFrequent);
    case MiningTask::kClosed:
    case MiningTask::kMaximal: {
      // Closedness is threshold-independent, so a closed listing at a
      // lower threshold answers both; maximality is not, so never
      // maximal <- maximal.
      Source source = at_or_below(MiningTask::kClosed);
      if (source.result == nullptr) {
        source = at_or_below(MiningTask::kFrequent);
      }
      return source;
    }
    case MiningTask::kTopK: {
      // Any FREQUENT listing at s <= floor answers (complete at the
      // floor after filtering). One at s > floor also does when it
      // holds >= k entries: everything it misses has support < s <= the
      // k-th best. Walk the frequent configuration ascending and keep
      // the highest valid threshold — the smallest listing to rank.
      const ResultCacheKey freq = probe(MiningTask::kFrequent);
      ResultCacheKey range_start = freq;
      range_start.min_support = 0;
      EntryMap::iterator best = entries_.end();
      for (auto it = entries_.lower_bound(range_start);
           it != entries_.end() && it->first.SameConfig(freq); ++it) {
        if (it->first.min_support <= key.min_support ||
            it->second.result->itemsets.size() >= key.k) {
          best = it;
        }
      }
      if (best == entries_.end()) return Source{};
      best->second.lru_seq = next_seq_++;
      return Source{best->second.result, MiningTask::kFrequent};
    }
    case MiningTask::kRules: {
      // Subset supports never depend on the threshold, so rules@m is
      // exactly rules@s restricted to itemset_support >= m; otherwise
      // rules come from a closed listing, or a frequent one's closure.
      for (MiningTask t :
           {MiningTask::kRules, MiningTask::kClosed, MiningTask::kFrequent}) {
        Source source = at_or_below(t);
        if (source.result != nullptr) return source;
      }
      return Source{};
    }
  }
  return Source{};
}

std::shared_ptr<CachedResult> ResultCache::Derive(const ResultCacheKey& key,
                                                  const Source& source) {
  const Support m = key.min_support;
  const CachedResult& from = *source.result;
  // A closed source filtered to support >= m is exactly the closed
  // listing at m, still canonical; a FREQUENT source's filtered entries
  // go canonical for the closed and maximal post-filters.
  const auto filtered = [&from, m] {
    return FilterBySupport(from.itemsets, m);
  };
  const bool from_closed = source.task == MiningTask::kClosed;
  const auto closed = [&] {
    return from_closed ? filtered() : FilterClosed(Canonicalized(filtered()));
  };

  auto derived = std::make_shared<CachedResult>();
  derived->total_weight = from.total_weight;
  switch (key.task) {
    case MiningTask::kFrequent:
      derived->itemsets = filtered();
      break;
    case MiningTask::kClosed:
      derived->itemsets = closed();
      break;
    case MiningTask::kMaximal:
      // Never maximal <- maximal: maximality depends on the threshold.
      if (from_closed) {
        derived->itemsets = FilterMaximalFromClosed(filtered());
      } else {
        derived->itemsets = FilterMaximal(Canonicalized(filtered()));
      }
      break;
    case MiningTask::kTopK:
      derived->itemsets = filtered();
      std::sort(derived->itemsets.begin(), derived->itemsets.end(),
                TopKOutranks);
      if (derived->itemsets.size() > key.k) {
        derived->itemsets.resize(static_cast<size_t>(key.k));
      }
      break;
    case MiningTask::kRules: {
      if (source.task == MiningTask::kRules) {
        for (const AssociationRule& r : from.rules) {
          if (r.itemset_support >= m) derived->rules.push_back(r);
        }
        break;
      }
      RuleOptions options;
      options.min_confidence = key.min_confidence;
      options.min_lift = key.min_lift;
      options.max_consequent = key.max_consequent;
      Result<std::vector<AssociationRule>> rules =
          GenerateRulesFromClosed(closed(), from.total_weight, options);
      // A derivation failure (defensive: the filtered listing should
      // always be complete) falls back to a fresh mine.
      if (!rules.ok()) return nullptr;
      derived->rules = std::move(rules.value());
      break;
    }
  }

  derived->num_results = key.task == MiningTask::kRules
                             ? derived->rules.size()
                             : derived->itemsets.size();
  derived->itemsets.shrink_to_fit();
  derived->rules.shrink_to_fit();
  derived->bytes = EstimateResultBytes(*derived);
  return derived;
}

ResultCacheLookup ResultCache::Lookup(const ResultCacheKey& key) {
  ResultCacheLookup out;
  Source source;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.lru_seq = next_seq_++;
      out.result = it->second.result;
      out.exact = true;
      ++stats_.hits;
      hits_counter_->Increment();
      return out;
    }
    source = FindSourceLocked(key);
  }

  std::shared_ptr<CachedResult> derived;
  if (source.result != nullptr) {
    if (derive_hook_for_test_) derive_hook_for_test_();
    derived = Derive(key, source);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (derived == nullptr) {
    ++stats_.misses;
    misses_counter_->Increment();
    return out;
  }
  out.result = derived;
  if (source.task == key.task) {
    out.dominated = true;
    ++stats_.dominated_hits;
    dominated_counter_->Increment();
  } else {
    out.cross_task = true;
    ++stats_.cross_task_hits;
    cross_task_counter_->Increment();
  }
  // Memoize under the queried key so repeats are exact hits.
  InsertLocked(key, std::move(derived));
  return out;
}

ReseedSource ResultCache::FindSeed(const ResultCacheKey& key,
                                   const std::string& parent_digest,
                                   Support max_source) {
  std::lock_guard<std::mutex> lock(mu_);
  ReseedSource out;
  ResultCacheKey probe = key;
  probe.digest = parent_digest;
  probe.min_support = max_source;
  auto it = FindBestAtOrBelowLocked(probe);
  if (it == entries_.end()) return out;
  it->second.lru_seq = next_seq_++;
  out.result = it->second.result;
  out.min_support = it->first.min_support;
  return out;
}

void ResultCache::Insert(const ResultCacheKey& key,
                         std::shared_ptr<const CachedResult> result) {
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(result));
}

void ResultCache::InsertLocked(const ResultCacheKey& key,
                               std::shared_ptr<const CachedResult> result) {
  Entry& entry = entries_[key];
  if (entry.result != nullptr) resident_bytes_ -= entry.result->bytes;
  entry.result = std::move(result);
  entry.lru_seq = next_seq_++;
  resident_bytes_ += entry.result->bytes;
  ++stats_.insertions;
  EvictLocked();
  bytes_gauge_->Set(resident_bytes_);
}

void ResultCache::EvictLocked() {
  if (budget_bytes_ == 0) return;
  while (resident_bytes_ > budget_bytes_ && entries_.size() > 1) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (victim == entries_.end() ||
          it->second.lru_seq < victim->second.lru_seq) {
        victim = it;
      }
    }
    resident_bytes_ -= victim->second.result->bytes;
    entries_.erase(victim);
    ++stats_.evictions;
    evictions_counter_->Increment();
  }
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ResultCacheStats s = stats_;
  s.resident_bytes = resident_bytes_;
  s.resident_entries = entries_.size();
  return s;
}

}  // namespace fpm
