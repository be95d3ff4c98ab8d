// The cluster coordinator: every fpmd node runs one, and any node can
// accept any query (coordinator/worker symmetry — there is no special
// head node). For a v2 "query" the coordinator
//
//   1. resolves the dataset's content digest (DigestForPath — the same
//      FNV digest the registry and ResultCache key on, read from the
//      packed header or computed over the raw bytes, so packed, FIMI
//      and versioned datasets all route identically),
//   2. places it on the hash ring (Owners = R replica nodes), and
//   3. if this node is an owner, runs the query locally — otherwise
//      probes the owners' ResultCaches (cache_probe: answer without
//      mining or loading anything) and, on miss, forwards the whole
//      query to one owner (shard_query mode "execute"), failing over
//      replica by replica. A forward returns the owner's result
//      verbatim, so the default remote path keeps the byte-identical
//      itemset order contract.
//
// The opt-in scatter path (ExecuteScatter) instead fans SON phase 1/2
// sub-queries across ALL healthy owners and merges through the shard
// functions PartitionedMiner itself runs (fpm/core/partition.h) —
// higher throughput for cold heavy queries, canonical result order.
//
// Failure policy: a dead replica costs one failover
// (fpm.cluster.failovers) and the next replica is tried; when every
// owner is down the caller falls back to mining locally
// (fpm.cluster.local_fallbacks) — availability degrades to single-node
// behavior, never to an error the single-node daemon would not give.
// Cancellation propagates: the abort callback is checked on every
// transport poll tick, and dropping the peer connection makes the
// remote daemon cancel its job (its connection thread sees the close).

#ifndef FPM_CLUSTER_COORDINATOR_H_
#define FPM_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fpm/cluster/hash_ring.h"
#include "fpm/cluster/membership.h"
#include "fpm/common/status.h"
#include "fpm/service/dataset_registry.h"
#include "fpm/service/service.h"

namespace fpm {

struct ClusterOptions {
  /// This node's endpoint ("host:port"); must appear in `peers`.
  std::string self;
  /// The full static cluster (every node passes the same --cluster
  /// list). This — not live health — builds the hash ring, so placement
  /// is identical on every node and never reshuffles on a flap.
  std::vector<std::string> peers;
  /// Replica owners per dataset. The ring gives every peer
  /// ConsistentHashRing::kDefaultVirtualNodes points.
  uint32_t replicas = 2;
  /// Health ping sweep period (<= 0 disables the pinger). Each ping
  /// has ClusterMembership::Options' default timeout.
  double ping_interval_seconds = 2.0;
};

/// Priority boost a peer applies to shard_query "execute" jobs — a
/// remote sub-query already paid a network hop and a coordinator wait,
/// so it jumps the local queue (scheduler priority is larger = sooner).
inline constexpr int kShardPriorityBoost = 10;

/// Deadline for a cache_probe round trip: a probe only looks in the
/// peer's cache, so a slow one means a sick peer.
inline constexpr double kProbeDeadlineSeconds = 1.0;

/// Deadline for a forwarded query or a shard sub-query.
inline constexpr double kPeerDeadlineSeconds = 30.0;

class Coordinator {
 public:
  /// Peer call transport, injectable for tests. The default dials the
  /// endpoint with PeerClient. `abort` is polled during the call;
  /// returning true cancels it (Status kCancelled).
  using Transport = std::function<Result<std::string>(
      const std::string& endpoint, const std::string& line,
      double deadline_seconds, const std::function<bool()>& abort)>;

  /// Monotonic counters of the coordinator's decisions, mirrored to
  /// fpm.cluster.* metrics and reported by cluster_info.
  struct Counters {
    uint64_t remote_queries = 0;   ///< queries this node did not own
    uint64_t probe_hits = 0;       ///< remote cache answered, no mine
    uint64_t probe_misses = 0;     ///< probes that found nothing
    uint64_t forwards = 0;         ///< whole-query forwards attempted
    uint64_t failovers = 0;        ///< replica attempts after a failure
    uint64_t local_fallbacks = 0;  ///< every owner down, mined locally
    uint64_t scatter_queries = 0;  ///< SON fan-out queries
    uint64_t probe_hits_served = 0;    ///< cache_probe hits we answered
    uint64_t probe_misses_served = 0;  ///< cache_probe misses we answered
  };

  explicit Coordinator(ClusterOptions options, Transport transport = {});
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Starts the membership pinger.
  void Start();

  const ClusterOptions& options() const { return options_; }
  ClusterMembership& membership() { return membership_; }
  const ConsistentHashRing& ring() const { return ring_; }

  /// Content digest of the dataset at `path` — the placement and cache
  /// key. Packed files: the 16-hex digest in the header (no data read),
  /// read by ReadPackedHeader, so a header OpenMapped would refuse gets
  /// OpenMapped's IO_ERROR here too; anything else: FNV-1a over the raw
  /// bytes, exactly what the DatasetRegistry computes on load. Memoized
  /// per path.
  Result<std::string> DigestForPath(const std::string& path);

  /// The R replica owners of a digest, primary first (ring order, not
  /// health order).
  std::vector<std::string> OwnersForDigest(const std::string& digest) const;

  /// True when this node is one of the digest's owners (query runs
  /// locally; no cluster hop).
  bool SelfOwns(const std::string& digest) const;

  /// Route-to-owner execution of a query this node does not own: probe
  /// the owners' result caches, then forward to the first owner that
  /// answers, failing over across replicas. The returned response
  /// carries served_by = the answering owner. Unavailable when every
  /// owner failed (caller should fall back to local execution and
  /// record it via NoteLocalFallback).
  Result<MineResponse> ExecuteRemote(const MineRequest& request,
                                     const std::string& digest,
                                     const std::function<bool()>& abort);

  /// Scatter execution: SON phase 1/2 fan-out over all healthy owners,
  /// merged with the PartitionedMiner math. FailedPrecondition when the
  /// query is not task "frequent" or fewer than two owners are healthy
  /// (caller runs locally). Canonical result order.
  Result<MineResponse> ExecuteScatter(const MineRequest& request,
                                      const std::string& digest,
                                      const std::function<bool()>& abort);

  /// Records that a remote execution failed everywhere and the query
  /// was answered by mining locally.
  void NoteLocalFallback();
  /// Records a cache_probe this node answered (the serving side).
  void NoteProbeServed(bool hit);

  Counters counters() const;

  /// The "cluster" JSON section of cluster_info and stats: self,
  /// replicas, per-peer health/latency/ownership (datasets_owned is
  /// computed by placing every registry row's digest), the counters,
  /// and — when `placement_digest` is non-empty — the placement of that
  /// digest. Returned as the JSON text of one object, keys ascending;
  /// no "ok" key, callers embed it.
  std::string InfoJson(
      const std::vector<DatasetRegistryStats::Dataset>& datasets,
      const std::string& placement_digest) const;

 private:
  struct AtomicCounters {
    std::atomic<uint64_t> remote_queries{0};
    std::atomic<uint64_t> probe_hits{0};
    std::atomic<uint64_t> probe_misses{0};
    std::atomic<uint64_t> forwards{0};
    std::atomic<uint64_t> failovers{0};
    std::atomic<uint64_t> local_fallbacks{0};
    std::atomic<uint64_t> scatter_queries{0};
    std::atomic<uint64_t> probe_hits_served{0};
    std::atomic<uint64_t> probe_misses_served{0};
  };

  /// Owners of `digest` excluding self, healthy ones first (stable
  /// within each class, so ring replica order breaks ties).
  std::vector<std::string> RemoteOwnersHealthyFirst(
      const std::string& digest) const;

  /// One transport call with RTT accounting: success records the RTT
  /// into membership, failure records a peer failure (except
  /// cancellation, which says nothing about the peer).
  Result<std::string> CallPeer(const std::string& endpoint,
                               const std::string& line,
                               double deadline_seconds,
                               const std::function<bool()>& abort);

  ClusterOptions options_;
  Transport transport_;
  ClusterMembership membership_;
  ConsistentHashRing ring_;

  mutable std::mutex digest_mu_;
  std::map<std::string, std::string> digest_by_path_;

  AtomicCounters counters_;
  Counter* failovers_counter_;        // fpm.cluster.failovers
  Counter* remote_queries_counter_;   // fpm.cluster.remote_queries
  Counter* probe_hits_counter_;       // fpm.cluster.probe_hits
  Counter* local_fallbacks_counter_;  // fpm.cluster.local_fallbacks
};

}  // namespace fpm

#endif  // FPM_CLUSTER_COORDINATOR_H_
