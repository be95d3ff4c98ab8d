#include "fpm/cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "fpm/cluster/endpoint.h"
#include "fpm/cluster/peer_client.h"
#include "fpm/common/json_writer.h"
#include "fpm/dataset/packed.h"
#include "fpm/obs/metrics.h"
#include "fpm/service/protocol.h"

namespace fpm {

namespace {

Result<std::string> DefaultTransport(const std::string& endpoint,
                                     const std::string& line,
                                     double deadline_seconds,
                                     const std::function<bool()>& abort) {
  FPM_ASSIGN_OR_RETURN(Endpoint parsed, ParseEndpoint(endpoint));
  return PeerClient::Call(parsed, line, deadline_seconds, abort);
}

// A peer-side error on a forwarded query that every replica would
// repeat (the query itself is bad, not the peer) — failover is
// pointless, surface it to the client.
bool IsDeterministicRejection(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange:
    case StatusCode::kUnimplemented:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kCancelled:
      return true;
    default:
      return false;
  }
}

}  // namespace

Coordinator::Coordinator(ClusterOptions options, Transport transport)
    : options_(std::move(options)),
      transport_(transport ? std::move(transport) : DefaultTransport),
      membership_(
          [this] {
            ClusterMembership::Options m;
            m.self = options_.self;
            m.peers = options_.peers;
            m.ping_interval_seconds = options_.ping_interval_seconds;
            return m;
          }(),
          // Route pings through the (possibly injected) transport so a
          // fake transport controls health in tests too.
          [this](const std::string& endpoint, double timeout_s) -> Status {
            FPM_ASSIGN_OR_RETURN(
                std::string reply,
                transport_(endpoint, "{\"op\":\"ping\"}", timeout_s, {}));
            return ReplyStatus(reply);
          }),
      ring_(options_.peers) {
  MetricsRegistry& m = MetricsRegistry::Default();
  failovers_counter_ = m.GetCounter("fpm.cluster.failovers");
  remote_queries_counter_ = m.GetCounter("fpm.cluster.remote_queries");
  probe_hits_counter_ = m.GetCounter("fpm.cluster.probe_hits");
  local_fallbacks_counter_ = m.GetCounter("fpm.cluster.local_fallbacks");
}

Coordinator::~Coordinator() { membership_.Stop(); }

void Coordinator::Start() { membership_.Start(); }

Result<std::string> Coordinator::DigestForPath(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    auto it = digest_by_path_.find(path);
    if (it != digest_by_path_.end()) return it->second;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cluster: cannot open dataset '" + path + "'");
  }
  char header[kPackedHeaderBytes];
  in.read(header, sizeof(header));
  const size_t header_bytes = static_cast<size_t>(in.gcount());

  std::string digest;
  if (header_bytes >= sizeof(kPackedMagic) &&
      std::memcmp(header, kPackedMagic, sizeof(kPackedMagic)) == 0) {
    // Packed file: the header carries the content digest — placement
    // costs one page read, never a dataset load.
    const std::string_view bytes(header, header_bytes);
    FPM_ASSIGN_OR_RETURN(digest, ReadPackedHeader(path, bytes));
  } else {
    // Anything else (FIMI text): digest the raw bytes, exactly what
    // DatasetRegistry::Open computes when it loads the file.
    std::string bytes(header, header_bytes);
    std::ostringstream rest;
    rest << in.rdbuf();
    bytes += rest.str();
    digest = ContentDigest(bytes);
  }

  std::lock_guard<std::mutex> lock(digest_mu_);
  digest_by_path_.emplace(path, digest);
  return digest;
}

std::vector<std::string> Coordinator::OwnersForDigest(
    const std::string& digest) const {
  return ring_.Owners(digest, options_.replicas);
}

bool Coordinator::SelfOwns(const std::string& digest) const {
  const std::vector<std::string> owners = OwnersForDigest(digest);
  return std::find(owners.begin(), owners.end(), options_.self) !=
         owners.end();
}

std::vector<std::string> Coordinator::RemoteOwnersHealthyFirst(
    const std::string& digest) const {
  std::vector<std::string> owners = OwnersForDigest(digest);
  owners.erase(std::remove(owners.begin(), owners.end(), options_.self),
               owners.end());
  // Healthy owners first; ring (replica) order breaks ties, so the
  // primary is still preferred within each class.
  std::stable_partition(owners.begin(), owners.end(),
                        [this](const std::string& endpoint) {
                          return membership_.IsHealthy(endpoint);
                        });
  return owners;
}

Result<std::string> Coordinator::CallPeer(const std::string& endpoint,
                                          const std::string& line,
                                          double deadline_seconds,
                                          const std::function<bool()>& abort) {
  const auto start = std::chrono::steady_clock::now();
  Result<std::string> result =
      transport_(endpoint, line, deadline_seconds, abort);
  if (result.ok()) {
    const double rtt_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    membership_.RecordSuccess(endpoint, rtt_ms);
  } else if (result.status().code() != StatusCode::kCancelled) {
    membership_.RecordFailure(endpoint, result.status());
  }
  return result;
}

Result<RelayedReply> Coordinator::ExecuteRemote(
    const MineRequest& request, const std::string& digest, uint64_t query_id,
    std::string_view trace_id, const std::function<bool()>& abort) {
  counters_.remote_queries.fetch_add(1, std::memory_order_relaxed);
  remote_queries_counter_->Increment();

  const std::vector<std::string> owners = RemoteOwnersHealthyFirst(digest);
  if (owners.empty()) {
    return Status::Unavailable("cluster: no remote owners for digest " +
                               digest);
  }

  // Probe phase: any owner's ResultCache may already hold the answer —
  // a hit costs one round trip and zero mining anywhere. Probe failures
  // and unreadable replies are not failovers (nothing was being
  // executed yet).
  const std::string probe_line = EncodeCacheProbeRequest(digest, request);
  for (const std::string& owner : owners) {
    if (abort && abort()) {
      return Status::Cancelled("cluster: query aborted during probe");
    }
    Result<std::string> raw =
        CallPeer(owner, probe_line, kProbeDeadlineSeconds, abort);
    if (!raw.ok()) {
      if (raw.status().code() == StatusCode::kCancelled) return raw.status();
      continue;
    }
    Result<RelayedReply> relayed = RelayQueryResponse(
        raw.value(), /*probe=*/true, RelayEnvelope{owner, query_id, trace_id});
    if (!relayed.ok()) continue;
    if (!relayed->line.empty()) {
      counters_.probe_hits.fetch_add(1, std::memory_order_relaxed);
      probe_hits_counter_->Increment();
      return relayed;
    }
    counters_.probe_misses.fetch_add(1, std::memory_order_relaxed);
  }

  // Forward phase: route the whole query to one owner (its kernel, its
  // cache fill), replica by replica on failure.
  const std::string forward_line = EncodeShardQueryRequest(request);
  Status last = Status::Unavailable("no owner attempted");
  for (const std::string& owner : owners) {
    if (abort && abort()) {
      return Status::Cancelled("cluster: query aborted during forward");
    }
    counters_.forwards.fetch_add(1, std::memory_order_relaxed);
    Result<std::string> raw =
        CallPeer(owner, forward_line, kPeerDeadlineSeconds, abort);
    if (!raw.ok()) {
      if (raw.status().code() == StatusCode::kCancelled) return raw.status();
      last = raw.status();
      counters_.failovers.fetch_add(1, std::memory_order_relaxed);
      failovers_counter_->Increment();
      continue;
    }
    Result<RelayedReply> relayed = RelayQueryResponse(
        raw.value(), /*probe=*/false, RelayEnvelope{owner, query_id, trace_id});
    if (relayed.ok()) return relayed;
    if (IsDeterministicRejection(relayed.status().code())) {
      return relayed.status();
    }
    last = relayed.status();
    counters_.failovers.fetch_add(1, std::memory_order_relaxed);
    failovers_counter_->Increment();
  }
  return Status::Unavailable(
      "cluster: all " + std::to_string(owners.size()) + " owner(s) of digest " +
      digest + " failed; last: " + last.ToString());
}

void Coordinator::NoteLocalFallback() {
  counters_.local_fallbacks.fetch_add(1, std::memory_order_relaxed);
  local_fallbacks_counter_->Increment();
}

void Coordinator::NoteProbeServed(bool hit) {
  if (hit) {
    counters_.probe_hits_served.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.probe_misses_served.fetch_add(1, std::memory_order_relaxed);
  }
}

Coordinator::Counters Coordinator::counters() const {
  Counters out;
  out.remote_queries = counters_.remote_queries.load(std::memory_order_relaxed);
  out.probe_hits = counters_.probe_hits.load(std::memory_order_relaxed);
  out.probe_misses = counters_.probe_misses.load(std::memory_order_relaxed);
  out.forwards = counters_.forwards.load(std::memory_order_relaxed);
  out.failovers = counters_.failovers.load(std::memory_order_relaxed);
  out.local_fallbacks =
      counters_.local_fallbacks.load(std::memory_order_relaxed);
  out.probe_hits_served =
      counters_.probe_hits_served.load(std::memory_order_relaxed);
  out.probe_misses_served =
      counters_.probe_misses_served.load(std::memory_order_relaxed);
  return out;
}

std::string Coordinator::InfoJson(
    const std::vector<DatasetRegistryStats::Dataset>& datasets,
    const std::string& placement_digest) const {
  // Shard counts: place every loaded dataset's digest and tally per
  // owner — "who would serve what" from this node's registry view.
  std::map<std::string, uint64_t> owned;
  for (const DatasetRegistryStats::Dataset& d : datasets) {
    if (d.digest.empty()) continue;
    for (const std::string& owner : OwnersForDigest(d.digest)) {
      ++owned[owner];
    }
  }

  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  const Counters c = counters();
  w.Key("counters").BeginObject();
  w.Key("failovers").Uint(c.failovers);
  w.Key("forwards").Uint(c.forwards);
  w.Key("local_fallbacks").Uint(c.local_fallbacks);
  w.Key("probe_hits").Uint(c.probe_hits);
  w.Key("probe_hits_served").Uint(c.probe_hits_served);
  w.Key("probe_misses").Uint(c.probe_misses);
  w.Key("probe_misses_served").Uint(c.probe_misses_served);
  w.Key("remote_queries").Uint(c.remote_queries);
  w.EndObject();
  w.Key("enabled").Bool(true);

  w.Key("peers").BeginArray();
  for (const ClusterMembership::PeerStatus& status : membership_.Snapshot()) {
    auto it = owned.find(status.endpoint);
    w.BeginObject();
    w.Key("consecutive_failures").Uint(status.consecutive_failures);
    w.Key("datasets_owned").Uint(it == owned.end() ? 0 : it->second);
    w.Key("endpoint").String(status.endpoint);
    w.Key("failures").Uint(status.failures);
    w.Key("healthy").Bool(status.healthy);
    w.Key("pings").Uint(status.pings);
    w.Key("rtt_last_ms").Number(status.last_rtt_ms);
    w.Key("rtt_p50_ms").Number(status.rtt_60s.p50_ms);
    w.Key("rtt_p99_ms").Number(status.rtt_60s.p99_ms);
    w.Key("self").Bool(status.self);
    w.EndObject();
  }
  w.EndArray();

  if (!placement_digest.empty()) {
    w.Key("placement").BeginObject();
    w.Key("digest").String(placement_digest);
    w.Key("owners").BeginArray();
    for (const std::string& owner : OwnersForDigest(placement_digest)) {
      w.String(owner);
    }
    w.EndArray();
    w.EndObject();
  }
  w.Key("replicas").Uint(options_.replicas);
  w.Key("self").String(options_.self);
  w.Key("virtual_nodes").Uint(ring_.virtual_nodes());
  w.EndObject();
  return out;
}

}  // namespace fpm
