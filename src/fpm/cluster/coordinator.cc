#include "fpm/cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "fpm/cluster/endpoint.h"
#include "fpm/cluster/peer_client.h"
#include "fpm/common/json_writer.h"
#include "fpm/core/partition.h"
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

std::string JoinEndpoints(const std::vector<std::string>& endpoints) {
  std::string out;
  for (const std::string& e : endpoints) {
    if (!out.empty()) out.push_back(',');
    out += e;
  }
  return out;
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
            Result<std::string> reply =
                transport_(endpoint, "{\"op\":\"ping\"}", timeout_s, {});
            if (!reply.ok()) return reply.status();
            if (reply.value().find("\"ok\":true") == std::string::npos) {
              return Status::Unavailable("peer " + endpoint +
                                         ": ping rejected: " + reply.value());
            }
            return Status::OK();
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
    membership_.RecordFailure(endpoint);
  }
  return result;
}

Result<MineResponse> Coordinator::ExecuteRemote(
    const MineRequest& request, const std::string& digest,
    const std::function<bool()>& abort) {
  counters_.remote_queries.fetch_add(1, std::memory_order_relaxed);
  remote_queries_counter_->Increment();

  const std::vector<std::string> owners = RemoteOwnersHealthyFirst(digest);
  if (owners.empty()) {
    return Status::Unavailable("cluster: no remote owners for digest " +
                               digest);
  }

  // Probe phase: any owner's ResultCache may already hold the answer —
  // a hit costs one round trip and zero mining anywhere. Probe failures
  // are not failovers (nothing was being executed yet).
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
    Result<CacheProbeReply> reply = DecodeCacheProbeResponse(raw.value());
    if (!reply.ok()) continue;
    if (reply.value().hit) {
      counters_.probe_hits.fetch_add(1, std::memory_order_relaxed);
      probe_hits_counter_->Increment();
      MineResponse response = std::move(reply.value().response);
      response.served_by = owner;
      return response;
    }
    counters_.probe_misses.fetch_add(1, std::memory_order_relaxed);
  }

  // Forward phase: route the whole query to one owner (its kernel, its
  // cache fill), replica by replica on failure.
  const std::string forward_line = EncodeShardQueryRequest(
      request, ClusterOpRequest::ShardMode::kExecute, 0, 1, {});
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
    Result<MineResponse> decoded = DecodeQueryResponse(raw.value());
    if (!decoded.ok()) {
      if (IsDeterministicRejection(decoded.status().code())) {
        return decoded.status();
      }
      last = decoded.status();
      counters_.failovers.fetch_add(1, std::memory_order_relaxed);
      failovers_counter_->Increment();
      continue;
    }
    MineResponse response = std::move(decoded.value());
    response.served_by = owner;
    return response;
  }
  return Status::Unavailable(
      "cluster: all " + std::to_string(owners.size()) + " owner(s) of digest " +
      digest + " failed; last: " + last.ToString());
}

Result<MineResponse> Coordinator::ExecuteScatter(
    const MineRequest& request, const std::string& digest,
    const std::function<bool()>& abort) {
  if (request.query.task != MiningTask::kFrequent) {
    return Status::FailedPrecondition(
        "cluster: scatter supports task 'frequent' only");
  }
  std::vector<std::string> owners = OwnersForDigest(digest);
  owners.erase(std::remove_if(owners.begin(), owners.end(),
                              [this](const std::string& endpoint) {
                                return !membership_.IsHealthy(endpoint);
                              }),
               owners.end());
  const uint32_t k = static_cast<uint32_t>(owners.size());
  if (k < 2) {
    return Status::FailedPrecondition(
        "cluster: scatter needs >= 2 healthy owners, have " +
        std::to_string(k));
  }
  counters_.scatter_queries.fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();

  // One sub-query per partition, preferring owner p for partition p
  // (even spread) and failing over around the owner list. `run_shard`
  // is both phases' retry loop; only the wire payload differs.
  const auto run_shard =
      [&](uint32_t p, const std::string& line,
          const std::function<Status(const std::string&)>& on_reply)
      -> Status {
    Status last = Status::Unavailable("no owner attempted");
    for (uint32_t attempt = 0; attempt < k; ++attempt) {
      if (abort && abort()) {
        return Status::Cancelled("cluster: scatter aborted");
      }
      const std::string& owner = owners[(p + attempt) % k];
      Result<std::string> raw =
          CallPeer(owner, line, kPeerDeadlineSeconds, abort);
      Status status = raw.ok() ? on_reply(raw.value()) : raw.status();
      if (status.ok()) return status;
      if (status.code() == StatusCode::kCancelled ||
          IsDeterministicRejection(status.code())) {
        return status;
      }
      last = status;
      counters_.failovers.fetch_add(1, std::memory_order_relaxed);
      failovers_counter_->Increment();
    }
    return Status::Unavailable("cluster: shard " + std::to_string(p) +
                               " failed on every owner; last: " +
                               last.ToString());
  };

  // Phase 1: local mines at the scaled threshold, one partition per
  // owner, in parallel.
  std::vector<std::vector<CollectingSink::Entry>> locals(k);
  std::vector<Status> shard_status(k);
  {
    std::vector<std::thread> threads;
    threads.reserve(k);
    for (uint32_t p = 0; p < k; ++p) {
      threads.emplace_back([&, p] {
        const std::string line = EncodeShardQueryRequest(
            request, ClusterOpRequest::ShardMode::kMine, p, k, {});
        shard_status[p] = run_shard(p, line, [&](const std::string& reply) {
          FPM_ASSIGN_OR_RETURN(locals[p], DecodeShardMineResponse(reply));
          return Status::OK();
        });
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const Status& status : shard_status) {
    FPM_RETURN_IF_ERROR(status);
  }

  const std::vector<Itemset> candidates =
      MergeShardCandidates(std::move(locals));

  // Phase 2: exact counts of the candidate union over every partition.
  std::vector<std::vector<Support>> per_shard(k);
  if (!candidates.empty()) {
    std::vector<std::thread> threads;
    threads.reserve(k);
    for (uint32_t p = 0; p < k; ++p) {
      threads.emplace_back([&, p] {
        const std::string line = EncodeShardQueryRequest(
            request, ClusterOpRequest::ShardMode::kCount, p, k, candidates);
        shard_status[p] = run_shard(p, line, [&](const std::string& reply) {
          FPM_ASSIGN_OR_RETURN(per_shard[p], DecodeShardCountResponse(reply));
          if (per_shard[p].size() != candidates.size()) {
            return Status::Unavailable(
                "peer returned " + std::to_string(per_shard[p].size()) +
                " counts for " + std::to_string(candidates.size()) +
                " candidates");
          }
          return Status::OK();
        });
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& status : shard_status) {
      FPM_RETURN_IF_ERROR(status);
    }
  }

  std::vector<CollectingSink::Entry> merged =
      MergeShardCounts(candidates, per_shard, request.query.min_support);

  MineResponse response;
  response.task = MiningTask::kFrequent;
  response.num_frequent = merged.size();
  if (!request.count_only) response.itemsets = std::move(merged);
  response.cache = CacheOutcome::kMiss;
  response.dataset_digest = digest;
  response.trace_id = request.trace_id;
  response.mine_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  response.served_by = JoinEndpoints(owners);
  response.shard_count = k;
  return response;
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
  out.scatter_queries =
      counters_.scatter_queries.load(std::memory_order_relaxed);
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
  w.Key("scatter_queries").Uint(c.scatter_queries);
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
