// Versioned dataset chain — the streaming-ingestion substrate.
//
// A VersionedDataset wraps an append-only transaction log plus a chain
// of immutable DatasetVersion snapshots. Each Append()/Expire()/window
// overflow produces exactly one new version that is delta-encoded
// against its parent: the version record carries the delta (appended
// and expired transactions), a chained content digest, and a fully
// materialized immutable Database for that version's live window.
// Readers holding an older version's database are never affected — the
// shared_ptr keeps the snapshot alive for as long as any job mines it.
//
// Materialization contract (what the byte-identity tests assert): the
// Database of every version is byte-identical — same CSR arrays, same
// weights, same frequencies — to building a fresh Database from the
// live-window transactions in log order. Append-only steps take the
// fast path (bulk-copy the parent CSR via DatabaseBuilder::AddDatabase,
// then append the delta), which is identical because stored
// transactions are already normalized; steps that expire rebuild from
// the log window.
//
// Digest chaining: version 1's digest is whatever the caller supplies
// (the registry passes the file content digest, so an unversioned
// dataset keys caches exactly as before). A child's digest is the FNV
// of its parent's digest plus a canonical serialization of the delta —
// two dataset chains with the same base and the same delta history
// share digests, and any divergence changes every digest downstream.
//
// Sliding windows: a WindowPolicy bounds the live window by count
// ("last N transactions") and/or by time ("last T seconds", against
// per-delta timestamps; "now" is the maximum timestamp ever logged, so
// expiry is deterministic and never consults a wall clock). The policy
// is applied on every Append: overflow transactions expire inside the
// same version the append creates.

#ifndef FPM_DATASET_VERSIONED_H_
#define FPM_DATASET_VERSIONED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fpm/common/status.h"
#include "fpm/dataset/database.h"

namespace fpm {

/// Sliding-window retention policy; 0 disables a bound.
struct WindowPolicy {
  /// Keep at most the last N live transactions.
  uint64_t last_n = 0;
  /// Keep transactions with timestamp > max_logged_timestamp - T.
  double last_seconds = 0.0;

  bool bounded() const { return last_n > 0 || last_seconds > 0.0; }
};

/// The delta one version applies to its parent. Transactions are stored
/// normalized (within-transaction duplicates removed, first occurrence
/// wins — the DatabaseBuilder::AddTransaction normal form), so cache
/// reseeding never re-derives it. `expired` lists the expired
/// transactions oldest-first.
struct VersionDelta {
  std::vector<Itemset> appended;
  std::vector<Support> appended_weights;
  std::vector<Itemset> expired;
  std::vector<Support> expired_weights;
  Support appended_weight = 0;  ///< sum of appended weights
  Support expired_weight = 0;   ///< sum of expired weights

  bool empty() const { return appended.empty() && expired.empty(); }
};

/// One immutable snapshot in the chain.
struct DatasetVersion {
  uint64_t number = 1;  ///< 1-based; version 1 is the loaded base
  std::string digest;
  std::string parent_digest;  ///< empty for version 1
  std::shared_ptr<const Database> database;
  /// Delta against the parent; null for version 1.
  std::shared_ptr<const VersionDelta> delta;
  uint64_t num_transactions = 0;  ///< live transactions at this version
  Support appended_weight = 0;
  Support expired_weight = 0;
};

/// Chained digest of a child version: FNV-1a over the parent digest and
/// a canonical serialization of the delta.
std::string ChainDigest(const std::string& parent_digest,
                        const VersionDelta& delta);

/// The version chain. Not thread-safe; the registry serializes
/// mutations (readers only touch immutable version records they hold).
class VersionedDataset {
 public:
  /// Wraps `base` as version 1 with the given content digest.
  VersionedDataset(Database base, std::string digest);

  const std::vector<DatasetVersion>& versions() const { return versions_; }
  const DatasetVersion& latest() const { return versions_.back(); }

  /// Version `number`, or null when out of range.
  const DatasetVersion* version(uint64_t number) const {
    return number >= 1 && number <= versions_.size()
               ? &versions_[number - 1]
               : nullptr;
  }

  const WindowPolicy& policy() const { return policy_; }

  /// Installs a window policy. When the new bound already overflows the
  /// live window, the overflow expires immediately as a new version;
  /// otherwise no version is created. Returns the latest version.
  const DatasetVersion* SetPolicy(const WindowPolicy& policy);

  /// Appends transactions (raw item lists; within-transaction
  /// duplicates are normalized away) and applies the window policy.
  /// `timestamps` is optional; absent entries inherit the maximum
  /// timestamp logged so far, so untimed appends never trigger time
  /// expiry on their own. Exactly one new version results, carrying
  /// both the appends and any window-driven expiry. An item id above
  /// kMaxItem is an INVALID_ARGUMENT naming its transaction's index and
  /// the item, and appends nothing.
  Result<const DatasetVersion*> Append(
      const std::vector<Itemset>& transactions,
      const std::vector<double>& timestamps = {});

  /// Expires the `count` oldest live transactions (1 <= count <= live).
  Result<const DatasetVersion*> Expire(uint64_t count);

  /// Live transactions in the latest version.
  uint64_t live_transactions() const {
    return seeded_ ? static_cast<uint64_t>(log_.size() - window_start_)
                   : versions_.back().num_transactions;
  }

  /// Heap bytes of the retained version databases plus the log. For a
  /// mapped (packed) base that was never mutated this stays small — the
  /// CSR arrays live in the page cache, not here.
  size_t resident_bytes() const;

  /// File-mapping bytes viewed by the retained version databases (0 for
  /// heap-built chains).
  size_t mapped_bytes() const;

  /// Total footprint: resident + mapped.
  size_t memory_bytes() const { return resident_bytes() + mapped_bytes(); }

  /// Storage backend of the base (version 1) database.
  StorageKind storage_kind() const {
    return versions_.front().database->storage_kind();
  }

 private:
  struct LogEntry {
    Itemset items;  // normalized
    Support weight = 1;
    double timestamp = 0.0;
  };

  /// Copies the base database's transactions into the log. Deferred to
  /// the first mutation so a mapped base stays out-of-core: seeding a
  /// multi-GB packed dataset eagerly would heap-copy the whole file.
  void EnsureSeeded();

  /// Number of leading live transactions the policy expires, given the
  /// window [window_start_, log_.size()).
  size_t PolicyOverflow() const;

  /// Materializes the window [new_start, log_.size()), records the new
  /// version with `delta`, and advances window_start_.
  const DatasetVersion* Commit(size_t new_start,
                               std::shared_ptr<VersionDelta> delta);

  std::vector<LogEntry> log_;
  bool seeded_ = false;
  size_t window_start_ = 0;
  double max_timestamp_ = 0.0;
  WindowPolicy policy_;
  std::vector<DatasetVersion> versions_;
};

}  // namespace fpm

#endif  // FPM_DATASET_VERSIONED_H_
