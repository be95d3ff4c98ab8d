// Cluster membership: the static peer list plus live health.
//
// Membership is configuration, not discovery: the peer set is the
// --cluster flag's list, identical on every node, and never changes at
// runtime — that is what keeps ConsistentHashRing placement identical
// everywhere (a flapping peer must not reshuffle ownership). What *is*
// live is health: a pinger thread sends {"op":"ping"} to every remote
// peer on an interval, and the Coordinator reports its own successes
// and failures as queries touch peers, so failover order reacts faster
// than the ping period.
//
// Health semantics: a peer starts healthy (optimistic — the cluster
// usually boots together), turns unhealthy on the first recorded
// failure, and recovers on the first success. The self entry is always
// healthy and never pinged.
//
// Per-peer latency rides along: every successful ping or query RTT is
// recorded into a per-peer WindowedHistogram, and Snapshot() carries
// the 60 s window stats — the per-peer latency surface of the "stats"
// and "cluster_info" protocol ops.

#ifndef FPM_CLUSTER_MEMBERSHIP_H_
#define FPM_CLUSTER_MEMBERSHIP_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fpm/common/status.h"
#include "fpm/obs/windowed.h"

namespace fpm {

class Counter;

class ClusterMembership {
 public:
  struct Options {
    /// This node's endpoint ("host:port"); must be in `peers`.
    std::string self;
    /// The full cluster, self included — every node passes the same
    /// list (the --cluster flag).
    std::vector<std::string> peers;
    /// Ping sweep period; <= 0 disables the pinger thread (health then
    /// moves only on Record{Success,Failure} from query traffic).
    double ping_interval_seconds = 2.0;
    /// Per-ping deadline.
    double ping_timeout_seconds = 1.0;
  };

  /// One peer's live view (Snapshot()).
  struct PeerStatus {
    std::string endpoint;
    bool self = false;
    bool healthy = true;
    uint64_t failures = 0;              ///< total failures ever recorded
    uint64_t consecutive_failures = 0;  ///< since the last success
    uint64_t pings = 0;                 ///< successful pings + queries
    double last_rtt_ms = 0.0;
    WindowedHistogram::Stats rtt_60s;   ///< 60 s RTT window
    Status last_failure;                ///< why the last failure failed
  };

  /// Ping transport, injectable for tests. The default dials the peer
  /// with PeerClient, sends {"op":"ping"} and reads the reply with
  /// ReplyStatus (fpm/service/protocol.h).
  using PingFn =
      std::function<Status(const std::string& endpoint, double timeout_s)>;

  explicit ClusterMembership(Options options, PingFn ping = {});
  ~ClusterMembership();

  ClusterMembership(const ClusterMembership&) = delete;
  ClusterMembership& operator=(const ClusterMembership&) = delete;

  /// Starts the pinger thread (no-op when disabled or already started).
  void Start();
  /// Stops the pinger (idempotent; the destructor calls it).
  void Stop();

  const std::string& self() const { return options_.self; }
  /// All configured endpoints, self included, in --cluster order.
  const std::vector<std::string>& peers() const { return options_.peers; }

  /// Self is always healthy; unknown endpoints are unhealthy.
  bool IsHealthy(const std::string& endpoint) const;

  /// Records a successful interaction (ping or query) with a peer.
  void RecordSuccess(const std::string& endpoint, double rtt_ms);
  /// Records a failed interaction and why it failed; the peer turns
  /// unhealthy.
  void RecordFailure(const std::string& endpoint, const Status& why);

  /// One synchronous ping sweep over the remote peers (the pinger
  /// thread's body; callable directly from tests).
  void PingOnce();

  std::vector<PeerStatus> Snapshot() const;

 private:
  struct Peer {
    std::string endpoint;
    bool self = false;
    bool healthy = true;
    uint64_t failures = 0;
    uint64_t consecutive_failures = 0;
    uint64_t successes = 0;
    double last_rtt_ms = 0.0;
    Status last_failure;
    std::unique_ptr<WindowedHistogram> rtt;
  };

  Peer* FindLocked(const std::string& endpoint);

  Options options_;
  PingFn ping_;
  mutable std::mutex mu_;
  std::vector<Peer> peers_;

  std::thread pinger_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;

  Counter* pings_counter_;          // fpm.cluster.pings
  Counter* peer_failures_counter_;  // fpm.cluster.peer_failures
};

}  // namespace fpm

#endif  // FPM_CLUSTER_MEMBERSHIP_H_
