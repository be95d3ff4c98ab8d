// Refcounted load-once dataset registry with an LRU byte budget,
// versioned datasets and opaque handles.
//
// The service answers many queries against few datasets, so datasets
// are loaded once, wrapped in a VersionedDataset chain, and shared by
// every concurrent job that mines them. Every lookup mints an opaque
// DatasetHandle{id, version}: the id ("ds-<n>") is stable for the
// registry's lifetime, the version pins one immutable snapshot. Jobs
// address data only through handles — a job holding version v is
// untouched by appends that advance the chain to v+1 (the snapshot's
// shared_ptr keeps it resident).
//
// Addressing:
//   Open(path)        — load-or-hit by path; returns the latest handle.
//                       Wire responses, cache keys and cluster
//                       placement depend on its digest being the
//                       FNV-1a of the raw file bytes; chained versions
//                       extend that digest space (versioned.h).
//   Resolve(id, ver)  — by id; ver 0 = latest, else explicit pin
//                       (reproducible replays).
//
// Mutations (Append / Expire / SetWindow) are serialized under the
// registry mutex: ingestion batches are rare next to queries, and
// readers never wait on them for data — they hold snapshots.
//
// Eviction: when the resident bytes exceed the budget, least-recently-
// used entries are dropped — but only entries no job currently pins
// (use_count() == 1 for every version under the registry mutex) and
// only entries never mutated: an appended dataset's state exists
// nowhere else, so dropping it would lose data, while a pristine one
// reloads from its file. Evicting an entry retires its id — a later
// Open() of the path mints a fresh id, and stale ids resolve NotFound.
//
// Storage backends: Open() sniffs the file magic — packed files
// (fpm/dataset/packed.h) are memory-mapped instead of parsed, with the
// content digest taken from the packed header (identical to the FIMI
// digest the file was packed from, so caches are storage-agnostic).
// Only resident (malloc'd) bytes count against the eviction budget;
// mapped bytes are page-cache pages the OS already reclaims under
// pressure, so a pinned mapped dataset far larger than the budget is
// legal and never forces other entries out.

#ifndef FPM_SERVICE_DATASET_REGISTRY_H_
#define FPM_SERVICE_DATASET_REGISTRY_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fpm/common/status.h"
#include "fpm/dataset/database.h"
#include "fpm/dataset/versioned.h"

namespace fpm {

class Counter;
class Gauge;

/// A pinned dataset version: holding the handle keeps the snapshot
/// resident.
struct DatasetHandle {
  /// Opaque registry-scoped dataset id ("ds-<n>").
  std::string id;
  /// The pinned version (1-based).
  uint64_t version = 1;
  /// The chain head at mint time (== version when latest was asked).
  uint64_t latest_version = 1;
  std::shared_ptr<const Database> database;
  /// Version digest: FNV-1a of the file bytes for version 1, chained
  /// delta digest beyond (keys the result cache).
  std::string digest;
  /// Parent version's digest; empty for version 1.
  std::string parent_digest;
  /// Delta against the parent (null for version 1) — what cache
  /// reseeding consumes.
  std::shared_ptr<const VersionDelta> delta;
  /// Total footprint (resident + mapped) of this version's database.
  size_t bytes = 0;
};

/// Point-in-time description of one dataset chain (dataset_info op).
struct DatasetInfo {
  std::string id;
  std::string path;
  /// Backend of the base database: "memory" | "packed".
  std::string storage = "memory";
  WindowPolicy window;
  uint64_t live_transactions = 0;
  struct Version {
    uint64_t number = 1;
    std::string digest;
    uint64_t num_transactions = 0;
    Support appended_weight = 0;
    Support expired_weight = 0;
  };
  std::vector<Version> versions;
};

/// Registry statistics (a point-in-time copy).
struct DatasetRegistryStats {
  uint64_t loads = 0;      ///< files read and parsed
  uint64_t hits = 0;       ///< lookups answered by a resident entry
  uint64_t appends = 0;    ///< mutation ops applied (append/expire/window)
  uint64_t evictions = 0;  ///< entries dropped by the LRU budget
  size_t resident_bytes = 0;
  /// File-mapping bytes across mapped (packed) entries; never counted
  /// against the eviction budget.
  size_t mapped_bytes = 0;
  size_t resident_entries = 0;
  /// One row per resident dataset (the stats op's registry listing).
  struct Dataset {
    std::string id;
    std::string path;
    /// Backend of the base database: "memory" | "packed".
    std::string storage = "memory";
    uint64_t versions = 0;
    uint64_t live_transactions = 0;
    size_t bytes = 0;        ///< resident heap bytes
    size_t mapped_bytes = 0; ///< file-mapping bytes (0 for heap entries)
    /// Versions some job currently holds a handle to (their snapshot
    /// shared_ptr has owners beyond the registry).
    uint64_t pinned_versions = 0;
    /// Content digest of the base version — what the cluster hash ring
    /// keys placement on.
    std::string digest;
  };
  std::vector<Dataset> datasets;
};

class DatasetRegistry {
 public:
  /// `budget_bytes` bounds resident database bytes (0 = unlimited).
  explicit DatasetRegistry(size_t budget_bytes = 0);

  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// Opens the dataset at `path`, loading it on first use, and returns
  /// a handle to the latest version. Blocks if another thread is
  /// currently loading the same path. IOError / InvalidArgument from
  /// the reader pass through (and are not cached: a later call
  /// retries).
  Result<DatasetHandle> Open(const std::string& path);

  /// Resolves a handle by id. `version` 0 pins the latest version; any
  /// other value pins that exact version (NotFound when the id is
  /// unknown or the version out of range).
  Result<DatasetHandle> Resolve(const std::string& id,
                                uint64_t version = 0);

  /// Appends transactions to the chain (see VersionedDataset::Append);
  /// returns the new latest handle.
  Result<DatasetHandle> Append(const std::string& id,
                               const std::vector<Itemset>& transactions,
                               const std::vector<double>& timestamps = {});

  /// Expires the `count` oldest live transactions; returns the new
  /// latest handle.
  Result<DatasetHandle> Expire(const std::string& id, uint64_t count);

  /// Installs a sliding-window policy (applies immediately if the live
  /// window already overflows it); returns the latest handle.
  Result<DatasetHandle> SetWindow(const std::string& id,
                                  const WindowPolicy& policy);

  /// Describes the chain: versions, window policy, per-version counts.
  Result<DatasetInfo> Info(const std::string& id) const;

  DatasetRegistryStats stats() const;

  size_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Entry {
    // Loading protocol: the loader inserts an Entry with loading=true,
    // releases the registry mutex, loads, then re-locks and publishes.
    bool loading = true;
    std::string id;
    std::unique_ptr<VersionedDataset> dataset;
    bool mutated = false;  ///< ever appended/expired — eviction-exempt
    size_t bytes = 0;   ///< dataset->resident_bytes() at last update
    size_t mapped = 0;  ///< dataset->mapped_bytes() at last update
    uint64_t lru_seq = 0;
  };

  /// Mints a handle for `version` of `entry`'s chain. Caller holds mu_.
  DatasetHandle MakeHandleLocked(const Entry& entry,
                                 const DatasetVersion& version) const;

  /// Re-accounts `entry`'s bytes after a mutation. Caller holds mu_.
  void UpdateBytesLocked(Entry& entry);

  /// Finds the entry owning `id`, or null. Caller holds mu_.
  Entry* FindByIdLocked(const std::string& id);
  const Entry* FindByIdLocked(const std::string& id) const;

  /// Drops LRU unpinned, unmutated entries until under budget. Caller
  /// holds mu_.
  void EvictLocked();

  const size_t budget_bytes_;
  mutable std::mutex mu_;
  std::condition_variable load_cv_;
  std::map<std::string, Entry> entries_;      // by path
  std::map<std::string, std::string> id_to_path_;
  uint64_t next_id_ = 1;
  uint64_t next_seq_ = 1;
  size_t resident_bytes_ = 0;
  size_t mapped_bytes_ = 0;
  uint64_t loads_ = 0;
  uint64_t hits_ = 0;
  uint64_t appends_ = 0;
  uint64_t evictions_ = 0;

  // fpm.service.registry.* metrics (resolved once; no-ops when the
  // default registry is disabled).
  Counter* loads_counter_;
  Counter* hits_counter_;
  Counter* appends_counter_;
  Counter* evictions_counter_;
  Gauge* bytes_gauge_;
};

}  // namespace fpm

#endif  // FPM_SERVICE_DATASET_REGISTRY_H_
