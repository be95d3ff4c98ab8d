#include "fpm/cluster/membership.h"

#include <chrono>
#include <utility>

#include "fpm/cluster/peer_client.h"
#include "fpm/obs/metrics.h"
#include "fpm/service/protocol.h"

namespace fpm {

namespace {

Status DefaultPing(const std::string& endpoint, double timeout_s) {
  FPM_ASSIGN_OR_RETURN(Endpoint parsed, ParseEndpoint(endpoint));
  FPM_ASSIGN_OR_RETURN(std::string reply,
                       PeerClient::Call(parsed, "{\"op\":\"ping\"}",
                                        timeout_s));
  return ReplyStatus(reply);
}

}  // namespace

ClusterMembership::ClusterMembership(Options options, PingFn ping)
    : options_(std::move(options)),
      ping_(ping ? std::move(ping) : DefaultPing) {
  peers_.reserve(options_.peers.size());
  for (const std::string& endpoint : options_.peers) {
    Peer peer;
    peer.endpoint = endpoint;
    peer.self = endpoint == options_.self;
    peer.rtt = std::make_unique<WindowedHistogram>();
    peers_.push_back(std::move(peer));
  }
  MetricsRegistry& m = MetricsRegistry::Default();
  pings_counter_ = m.GetCounter("fpm.cluster.pings");
  peer_failures_counter_ = m.GetCounter("fpm.cluster.peer_failures");
}

ClusterMembership::~ClusterMembership() { Stop(); }

void ClusterMembership::Start() {
  if (started_ || options_.ping_interval_seconds <= 0.0) return;
  bool has_remote = false;
  for (const Peer& peer : peers_) has_remote |= !peer.self;
  if (!has_remote) return;
  started_ = true;
  pinger_ = std::thread([this] {
    const auto interval = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(options_.ping_interval_seconds));
    std::unique_lock<std::mutex> lock(stop_mu_);
    while (!stopping_) {
      lock.unlock();
      PingOnce();
      lock.lock();
      stop_cv_.wait_for(lock, interval, [this] { return stopping_; });
    }
  });
}

void ClusterMembership::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (pinger_.joinable()) pinger_.join();
  started_ = false;
}

ClusterMembership::Peer* ClusterMembership::FindLocked(
    const std::string& endpoint) {
  for (Peer& peer : peers_) {
    if (peer.endpoint == endpoint) return &peer;
  }
  return nullptr;
}

bool ClusterMembership::IsHealthy(const std::string& endpoint) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Peer& peer : peers_) {
    if (peer.endpoint == endpoint) return peer.self || peer.healthy;
  }
  return false;
}

void ClusterMembership::RecordSuccess(const std::string& endpoint,
                                      double rtt_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Peer* peer = FindLocked(endpoint);
  if (peer == nullptr) return;
  peer->healthy = true;
  peer->consecutive_failures = 0;
  ++peer->successes;
  peer->last_rtt_ms = rtt_ms;
  peer->rtt->Record(rtt_ms);
  pings_counter_->Increment();
}

void ClusterMembership::RecordFailure(const std::string& endpoint,
                                      const Status& why) {
  std::lock_guard<std::mutex> lock(mu_);
  Peer* peer = FindLocked(endpoint);
  if (peer == nullptr || peer->self) return;
  peer->healthy = false;
  peer->last_failure = why;
  ++peer->failures;
  ++peer->consecutive_failures;
  peer_failures_counter_->Increment();
}

void ClusterMembership::PingOnce() {
  // Snapshot the remote endpoints outside the lock; pings are slow.
  std::vector<std::string> remotes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Peer& peer : peers_) {
      if (!peer.self) remotes.push_back(peer.endpoint);
    }
  }
  for (const std::string& endpoint : remotes) {
    const auto start = std::chrono::steady_clock::now();
    const Status status = ping_(endpoint, options_.ping_timeout_seconds);
    const double rtt_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (status.ok()) {
      RecordSuccess(endpoint, rtt_ms);
    } else {
      RecordFailure(endpoint, status);
    }
  }
}

std::vector<ClusterMembership::PeerStatus> ClusterMembership::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PeerStatus> out;
  out.reserve(peers_.size());
  for (const Peer& peer : peers_) {
    PeerStatus status;
    status.endpoint = peer.endpoint;
    status.self = peer.self;
    status.healthy = peer.self || peer.healthy;
    status.failures = peer.failures;
    status.consecutive_failures = peer.consecutive_failures;
    status.pings = peer.successes;
    status.last_rtt_ms = peer.last_rtt_ms;
    status.rtt_60s = peer.rtt->Query(60);
    status.last_failure = peer.last_failure;
    out.push_back(std::move(status));
  }
  return out;
}

}  // namespace fpm
