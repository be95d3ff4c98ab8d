// fpmd — the mining query daemon: a MiningService behind a Unix-domain
// stream socket speaking newline-delimited JSON (fpm/service/protocol.h).
//
//   ./fpmd --socket=/tmp/fpmd.sock [options]
//     --threads=N            pool workers (default: all hardware threads)
//     --data-budget-mb=N     dataset registry LRU budget (default 1024)
//     --cache-budget-mb=N    result cache LRU budget (default 256)
//     --queue-depth=N        backpressure bound (default 64)
//     --max-itemsets=N       admission bound (default 0: off)
//     --query-log=FILE       append one JSON line per query (see
//                            fpm/obs/query_log.h for the schema)
//     --slow-query-ms=N      also mirror queries slower than N ms to
//                            stderr (requires --query-log)
//     --once                 exit after the first connection closes
//                            (smoke tests)
//
// Cluster mode (DESIGN.md §19) — all three flags together:
//     --cluster=H1:P1,H2:P2,...  the full static peer list (identical
//                            on every node; it builds the hash ring)
//     --self=H:P             this node's entry in that list; also the
//                            TCP listen address (served alongside the
//                            Unix socket)
//     --replicas=N           replica owners per dataset (default 2)
//     --ping-interval-s=X    peer health ping period (default 2)
//     --peer-deadline-s=X    forwarded-query deadline (default 30)
//     --probe-deadline-s=X   cache_probe deadline (default 1)
//
// One thread per connection, joined when it ends; requests on a
// connection are answered in order. A client that disconnects mid-query
// cancels its in-flight job: the connection thread polls the socket
// while waiting and calls MineJob::Cancel() when the peer goes away, so
// an abandoned expensive query stops burning pool workers within one
// kernel frame. A request line longer than kMaxLineBytes (256 MiB,
// fpm/service/line_io.h) is answered with RESOURCE_EXHAUSTED and closes
// that connection only.
//
// Talk to it with examples/fpm_client.cpp, or by hand:
//   printf '{"op":"ping"}\n' | nc -U /tmp/fpmd.sock

#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fpm/cluster/coordinator.h"
#include "fpm/cluster/endpoint.h"
#include "fpm/core/mine.h"
#include "fpm/core/partition.h"
#include "fpm/obs/metrics.h"
#include "fpm/obs/prometheus.h"
#include "fpm/obs/query_log.h"
#include "fpm/service/line_io.h"
#include "fpm/service/protocol.h"
#include "fpm/service/result_cache.h"
#include "fpm/service/service.h"

namespace {

using namespace fpm;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--threads=N] [--data-budget-mb=N] "
               "[--cache-budget-mb=N] [--queue-depth=N] [--max-itemsets=N] "
               "[--query-log=FILE] [--slow-query-ms=N] [--once] "
               "[--cluster=H:P,... --self=H:P [--replicas=N] "
               "[--ping-interval-s=X] [--peer-deadline-s=X] "
               "[--probe-deadline-s=X]]\n",
               argv0);
  return 2;
}

/// True when the peer has closed: a zero-byte read on a nonblocking
/// peek. Pending request bytes (pipelined queries) read as n > 0 and
/// keep the connection alive.
bool PeerClosed(int fd) {
  char byte;
  const ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  return n == 0;
}

std::string MetricsJson() {
  std::ostringstream out;
  MetricsRegistry::Default().Snapshot().WriteJson(out);
  return out.str();
}

std::string MetricsText() {
  std::ostringstream out;
  WritePrometheusText(MetricsRegistry::Default().Snapshot(), out);
  return out.str();
}

/// Runs one query request, cancelling the job if the client
/// disconnects while it is queued or mining.
std::string HandleMine(MiningService& service, const MineRequest& request,
                       int fd) {
  Result<std::shared_ptr<MineJob>> submitted = service.Submit(request);
  if (!submitted.ok()) return EncodeError(submitted.status());
  const std::shared_ptr<MineJob>& job = submitted.value();
  while (!job->WaitFor(std::chrono::milliseconds(50))) {
    if (PeerClosed(fd)) {
      job->Cancel();
      break;
    }
  }
  Result<MineResponse> response = job->Take();
  if (!response.ok()) return EncodeError(response.status());
  return EncodeQueryResponse(response.value());
}

/// Runs a dataset op (open/append/expire/window/dataset_info) against
/// the service's registry. These are fast registry mutations, not
/// scheduler jobs — they run inline on the connection thread.
std::string HandleDatasetOp(MiningService& service,
                            const ServiceRequest& request) {
  DatasetRegistry& registry = service.registry();
  const DatasetOpRequest& op = request.dataset_op;
  switch (request.op) {
    case ServiceRequest::Op::kOpen: {
      Result<DatasetHandle> handle = registry.Open(op.path);
      if (!handle.ok()) return EncodeError(handle.status());
      return EncodeHandleResponse(handle.value());
    }
    case ServiceRequest::Op::kAppend: {
      Result<DatasetHandle> handle =
          registry.Append(op.id, op.transactions, op.timestamps);
      if (!handle.ok()) return EncodeError(handle.status());
      return EncodeHandleResponse(handle.value());
    }
    case ServiceRequest::Op::kExpire: {
      Result<DatasetHandle> handle = registry.Expire(op.id, op.count);
      if (!handle.ok()) return EncodeError(handle.status());
      return EncodeHandleResponse(handle.value());
    }
    case ServiceRequest::Op::kWindow: {
      Result<DatasetHandle> handle = registry.SetWindow(op.id, op.window);
      if (!handle.ok()) return EncodeError(handle.status());
      return EncodeHandleResponse(handle.value());
    }
    case ServiceRequest::Op::kDatasetInfo: {
      Result<DatasetInfo> info = registry.Info(op.id);
      if (!info.ok()) return EncodeError(info.status());
      return EncodeDatasetInfoResponse(info.value());
    }
    default:
      return EncodeError(Status::Internal("not a dataset op"));
  }
}

/// Runs a batch: every decodable entry becomes its own scheduler job,
/// and each response line streams back as soon as its job completes —
/// a slow query never blocks the others (no head-of-line blocking).
/// Lines carry "id" = the entry's index; malformed or rejected entries
/// get an immediate error line for their id only. Returns false when
/// the peer went away (connection is done).
bool HandleBatch(MiningService& service,
                 const std::vector<ServiceRequest::BatchEntry>& batch,
                 int fd) {
  struct Pending {
    uint64_t id;
    std::shared_ptr<MineJob> job;
  };
  std::vector<Pending> pending;
  const auto cancel_all = [&pending] {
    for (Pending& p : pending) p.job->Cancel();
    for (Pending& p : pending) p.job->Wait();
  };
  for (uint64_t i = 0; i < batch.size(); ++i) {
    const ServiceRequest::BatchEntry& entry = batch[i];
    if (!entry.status.ok()) {
      if (!WriteLine(fd, EncodeErrorWithId(i, entry.status)).ok()) {
        cancel_all();
        return false;
      }
      continue;
    }
    Result<std::shared_ptr<MineJob>> submitted =
        service.Submit(entry.request);
    if (!submitted.ok()) {
      if (!WriteLine(fd, EncodeErrorWithId(i, submitted.status())).ok()) {
        cancel_all();
        return false;
      }
      continue;
    }
    pending.push_back(Pending{i, submitted.value()});
  }
  while (!pending.empty()) {
    bool progressed = false;
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->job->WaitFor(std::chrono::milliseconds(5))) {
        Result<MineResponse> response = it->job->Take();
        std::string line =
            response.ok()
                ? EncodeQueryResponseWithId(it->id, response.value())
                : EncodeErrorWithId(it->id, response.status());
        if (!WriteLine(fd, line).ok()) {
          it = pending.erase(it);
          cancel_all();
          return false;
        }
        it = pending.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
    if (!progressed && PeerClosed(fd)) {
      cancel_all();
      return false;
    }
  }
  return true;
}

struct ServerState {
  std::unique_ptr<MiningService> service;
  std::unique_ptr<Coordinator> coordinator;  ///< null when not clustered
  std::atomic<bool> shutdown{false};
  int listen_fd = -1;      ///< Unix socket listener
  int tcp_listen_fd = -1;  ///< cluster TCP listener (-1 when not clustered)
};

/// Answers a peer's cache_probe: one ResultCache lookup keyed by the
/// probe's content digest — the full dominance/cross-task derivation
/// matrix a local query would walk, but no dataset load and no
/// scheduler job. query_id stays 0: probes are not scheduled queries.
std::string HandleCacheProbe(ServerState* state,
                             const ServiceRequest& request) {
  const MineRequest& mine = request.mine;
  const ResultCacheKey key = ResultCacheKey::ForQuery(
      request.cluster.digest, mine.algorithm,
      EffectivePatterns(mine.algorithm, mine.patterns).bits(), mine.query);
  ResultCacheLookup lookup = state->service->cache().Lookup(key);
  if (state->coordinator) {
    state->coordinator->NoteProbeServed(lookup.result != nullptr);
  }
  if (!lookup.result) {
    return EncodeCacheProbeResponse(false, MineResponse{});
  }
  MineResponse response;
  response.task = mine.query.task;
  response.num_frequent = lookup.result->num_results;
  if (!mine.count_only) {
    response.itemsets = lookup.result->itemsets;
    response.rules = lookup.result->rules;
  }
  response.cache = lookup.exact ? CacheOutcome::kExact
                   : lookup.dominated ? CacheOutcome::kDominated
                                      : CacheOutcome::kCrossTask;
  response.dataset_digest = request.cluster.digest;
  response.trace_id = mine.trace_id;
  return EncodeCacheProbeResponse(true, response);
}

/// Runs a peer's shard_query. Mode "execute" is a whole-query forward:
/// it becomes a normal scheduler job at boosted priority (the
/// coordinator on the other side already paid a hop and a wait). Modes
/// "mine"/"count" are the SON phases over one partition — registry
/// lookup plus the pure shard functions of fpm/core/partition.h, inline
/// on the connection thread like dataset ops. Malformed candidates come
/// back from CountShardPartition as INVALID_ARGUMENT replies.
std::string HandleShardQuery(ServerState* state,
                             const ServiceRequest& request, int fd) {
  const ClusterOpRequest& cluster = request.cluster;
  if (cluster.shard_mode == ClusterOpRequest::ShardMode::kExecute) {
    MineRequest boosted = request.mine;
    boosted.priority += state->coordinator
                            ? state->coordinator->options().shard_priority_boost
                            : 10;
    boosted.op = "shard_query";
    return HandleMine(*state->service, boosted, fd);
  }

  DatasetRegistry& registry = state->service->registry();
  Result<DatasetHandle> handle =
      request.mine.dataset_id.empty()
          ? registry.Open(request.mine.dataset_path)
          : registry.Resolve(request.mine.dataset_id,
                             request.mine.dataset_version);
  if (!handle.ok()) return EncodeError(handle.status());
  const Database& db = *handle.value().database;
  const ShardSlice slice{cluster.partition_index, cluster.partition_count};

  if (cluster.shard_mode == ClusterOpRequest::ShardMode::kMine) {
    Result<std::vector<CollectingSink::Entry>> local = MineShardPartition(
        db, slice, request.mine.query.min_support, request.mine.algorithm,
        request.mine.patterns);
    if (!local.ok()) return EncodeError(local.status());
    return EncodeShardMineResponse(local.value());
  }
  Result<std::vector<Support>> counts =
      CountShardPartition(db, slice, cluster.candidates);
  if (!counts.ok()) return EncodeError(counts.status());
  return EncodeShardCountResponse(counts.value());
}

/// Answers cluster_info: the coordinator's view (peers, health, RTTs,
/// shard counts, counters), plus the placement of a named dataset when
/// the request carries one. A non-clustered daemon reports
/// {"enabled":false} so tooling can always ask.
std::string HandleClusterInfo(ServerState* state,
                              const ServiceRequest& request) {
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(true));
  if (!state->coordinator) {
    JsonValue cluster = JsonValue::Object();
    cluster.Set("enabled", JsonValue::Bool(false));
    doc.Set("cluster", std::move(cluster));
    return doc.Dump();
  }
  std::string digest;
  if (!request.cluster.path.empty()) {
    Result<std::string> resolved =
        state->coordinator->DigestForPath(request.cluster.path);
    if (!resolved.ok()) return EncodeError(resolved.status());
    digest = resolved.value();
  }
  doc.Set("cluster",
          state->coordinator->InfoJson(
              state->service->Stats().registry.datasets, digest));
  return doc.Dump();
}

/// Cluster-aware execution of a v2 "query": path-addressed queries are
/// placed on the ring; if another node owns the dataset the coordinator
/// probes/forwards (or scatters), and this node mines only as the
/// last-resort fallback when every owner is down. Handle-addressed
/// queries ("id") are node-local names and never route. The response's
/// query_id/trace_id are this node's — the client talked to us.
std::string HandleQuery(ServerState* state, const MineRequest& request,
                        int fd) {
  MiningService& service = *state->service;
  Coordinator* coordinator = state->coordinator.get();
  if (coordinator == nullptr || request.dataset_path.empty()) {
    return HandleMine(service, request, fd);
  }
  Result<std::string> digest =
      coordinator->DigestForPath(request.dataset_path);
  if (!digest.ok()) {
    // Unreadable here may be readable nowhere; let the local submit
    // path produce the canonical error.
    return HandleMine(service, request, fd);
  }
  if (!request.scatter && coordinator->SelfOwns(digest.value())) {
    return HandleMine(service, request, fd);
  }

  const uint64_t query_id = service.AllocateQueryId();
  MineRequest sub = request;
  sub.query_id = 0;  // the executing peer assigns its own
  if (sub.trace_id.empty()) {
    // Synthesize a trace id so the hop is correlatable across both
    // nodes' query logs; only client-sent trace ids are echoed back.
    sub.trace_id = "qid-" + std::to_string(query_id) + "@" +
                   coordinator->options().self;
  }
  const auto abort = [fd] { return PeerClosed(fd); };
  Result<MineResponse> result =
      request.scatter
          ? coordinator->ExecuteScatter(sub, digest.value(), abort)
          : coordinator->ExecuteRemote(sub, digest.value(), abort);
  if (result.ok()) {
    MineResponse response = std::move(result.value());
    response.query_id = query_id;
    response.trace_id = request.trace_id;
    return EncodeQueryResponse(response);
  }
  const StatusCode code = result.status().code();
  if (code == StatusCode::kUnavailable ||
      code == StatusCode::kDeadlineExceeded ||
      code == StatusCode::kFailedPrecondition) {
    // Every owner down (or scatter inapplicable): availability degrades
    // to single-node behavior, never to an error a single-node daemon
    // would not give.
    if (code != StatusCode::kFailedPrecondition) {
      coordinator->NoteLocalFallback();
    }
    MineRequest local = request;
    local.query_id = query_id;
    return HandleMine(service, local, fd);
  }
  return EncodeError(result.status());
}

/// Answers the requests of one connection in order until the client
/// closes, fpmd shuts down, or a request line exceeds kMaxLineBytes —
/// that one gets a RESOURCE_EXHAUSTED reply before the close.
void ServeConnection(ServerState* state, int fd) {
  LineReader reader(fd);
  while (true) {
    std::string_view line;
    while (reader.Next(&line)) {
      if (line.empty()) continue;

      Result<ServiceRequest> request = DecodeRequest(std::string(line));
      std::string reply;
      bool shutdown_after = false;
      if (!request.ok()) {
        reply = EncodeError(request.status());
      } else {
        switch (request.value().op) {
          case ServiceRequest::Op::kPing:
            reply = EncodeOk();
            break;
          case ServiceRequest::Op::kMetrics:
            reply = MetricsJson();
            break;
          case ServiceRequest::Op::kMetricsText:
            reply = EncodeMetricsTextResponse(MetricsText());
            break;
          case ServiceRequest::Op::kStats:
            if (state->coordinator) {
              const ServiceStats stats = state->service->Stats();
              const JsonValue cluster =
                  state->coordinator->InfoJson(stats.registry.datasets, "");
              reply = EncodeStatsResponse(stats, &cluster);
            } else {
              reply = EncodeStatsResponse(state->service->Stats());
            }
            break;
          case ServiceRequest::Op::kShutdown:
            reply = EncodeOk();
            shutdown_after = true;
            break;
          case ServiceRequest::Op::kQuery:
            reply = HandleQuery(state, request.value().mine, fd);
            break;
          case ServiceRequest::Op::kClusterInfo:
            reply = HandleClusterInfo(state, request.value());
            break;
          case ServiceRequest::Op::kCacheProbe:
            reply = HandleCacheProbe(state, request.value());
            break;
          case ServiceRequest::Op::kShardQuery:
            reply = HandleShardQuery(state, request.value(), fd);
            break;
          case ServiceRequest::Op::kOpen:
          case ServiceRequest::Op::kAppend:
          case ServiceRequest::Op::kExpire:
          case ServiceRequest::Op::kWindow:
          case ServiceRequest::Op::kDatasetInfo:
            reply = HandleDatasetOp(*state->service, request.value());
            break;
          case ServiceRequest::Op::kBatch:
            // Batch replies stream from inside the handler, one tagged
            // line per query in completion order.
            if (!HandleBatch(*state->service, request.value().batch, fd)) {
              ::close(fd);
              return;
            }
            continue;
        }
      }
      if (!WriteLine(fd, reply).ok()) {
        ::close(fd);
        return;
      }
      if (shutdown_after) {
        state->shutdown.store(true, std::memory_order_relaxed);
        // Unblock the accept loop so the process can exit.
        ::shutdown(state->listen_fd, SHUT_RDWR);
        if (state->tcp_listen_fd >= 0) {
          ::shutdown(state->tcp_listen_fd, SHUT_RDWR);
        }
        ::close(fd);
        return;
      }
    }
    if (state->shutdown.load(std::memory_order_relaxed)) break;
    const Status filled = reader.Fill();
    if (!filled.ok()) {
      if (filled.code() == StatusCode::kResourceExhausted) {
        // Best effort: the connection closes either way.
        WriteLine(fd, EncodeError(LineTooLong("request: line")));
      }
      break;
    }
  }
  ::close(fd);
}

/// Binds + listens a TCP socket on the cluster self endpoint. -1 on
/// failure (errors go to stderr).
int ListenTcp(const Endpoint& self) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(self.host.c_str(),
                               std::to_string(self.port).c_str(), &hints,
                               &results);
  if (rc != 0) {
    std::fprintf(stderr, "fpmd: --self resolve %s: %s\n",
                 self.ToString().c_str(), ::gai_strerror(rc));
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 64) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) {
    std::fprintf(stderr, "fpmd: cannot listen on %s: %s\n",
                 self.ToString().c_str(), std::strerror(errno));
  }
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  long threads = 0;
  long data_budget_mb = 1024;
  long cache_budget_mb = 256;
  long queue_depth = 64;
  double max_itemsets = 0.0;
  std::string query_log_path;
  double slow_query_ms = 0.0;
  bool once = false;
  std::string cluster_list;
  std::string self_endpoint;
  long replicas = 2;
  double ping_interval_s = 2.0;
  double peer_deadline_s = 30.0;
  double probe_deadline_s = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atol(arg.c_str() + 10);
    } else if (arg.rfind("--data-budget-mb=", 0) == 0) {
      data_budget_mb = std::atol(arg.c_str() + 17);
    } else if (arg.rfind("--cache-budget-mb=", 0) == 0) {
      cache_budget_mb = std::atol(arg.c_str() + 18);
    } else if (arg.rfind("--queue-depth=", 0) == 0) {
      queue_depth = std::atol(arg.c_str() + 14);
    } else if (arg.rfind("--max-itemsets=", 0) == 0) {
      max_itemsets = std::atof(arg.c_str() + 15);
    } else if (arg.rfind("--query-log=", 0) == 0) {
      query_log_path = arg.substr(12);
    } else if (arg.rfind("--slow-query-ms=", 0) == 0) {
      slow_query_ms = std::atof(arg.c_str() + 16);
    } else if (arg == "--once") {
      once = true;
    } else if (arg.rfind("--cluster=", 0) == 0) {
      cluster_list = arg.substr(10);
    } else if (arg.rfind("--self=", 0) == 0) {
      self_endpoint = arg.substr(7);
    } else if (arg.rfind("--replicas=", 0) == 0) {
      replicas = std::atol(arg.c_str() + 11);
    } else if (arg.rfind("--ping-interval-s=", 0) == 0) {
      ping_interval_s = std::atof(arg.c_str() + 18);
    } else if (arg.rfind("--peer-deadline-s=", 0) == 0) {
      peer_deadline_s = std::atof(arg.c_str() + 18);
    } else if (arg.rfind("--probe-deadline-s=", 0) == 0) {
      probe_deadline_s = std::atof(arg.c_str() + 19);
    } else {
      return Usage(argv[0]);
    }
  }
  if (socket_path.empty() || threads < 0 || queue_depth < 1) {
    return Usage(argv[0]);
  }
  ClusterOptions cluster_options;
  bool clustered = false;
  if (!cluster_list.empty() || !self_endpoint.empty()) {
    if (cluster_list.empty() || self_endpoint.empty() || replicas < 1) {
      std::fprintf(stderr,
                   "fpmd: cluster mode needs --cluster, --self and "
                   "--replicas >= 1\n");
      return 2;
    }
    Result<std::vector<Endpoint>> peers = ParseEndpointList(cluster_list);
    if (!peers.ok()) {
      std::fprintf(stderr, "fpmd: --cluster: %s\n",
                   peers.status().message().c_str());
      return 2;
    }
    Result<Endpoint> self = ParseEndpoint(self_endpoint);
    if (!self.ok() || self.value().is_unix()) {
      std::fprintf(stderr, "fpmd: --self must be HOST:PORT\n");
      return 2;
    }
    bool self_listed = false;
    for (const Endpoint& peer : peers.value()) {
      cluster_options.peers.push_back(peer.ToString());
      self_listed |= peer == self.value();
    }
    if (!self_listed) {
      std::fprintf(stderr, "fpmd: --self %s is not in the --cluster list\n",
                   self.value().ToString().c_str());
      return 2;
    }
    cluster_options.self = self.value().ToString();
    cluster_options.replicas = static_cast<uint32_t>(replicas);
    cluster_options.ping_interval_seconds = ping_interval_s;
    cluster_options.peer_deadline_seconds = peer_deadline_s;
    cluster_options.probe_deadline_seconds = probe_deadline_s;
    clustered = true;
  }
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "socket path too long\n");
    return 2;
  }

  // The daemon always records its own metrics — the "metrics" op is the
  // service's dashboard.
  MetricsRegistry::Default().set_enabled(true);

  // The query log must outlive the service: in-flight jobs write their
  // completion lines from pool threads during service teardown.
  QueryLog query_log;
  if (!query_log_path.empty()) {
    const Status opened = query_log.OpenFile(query_log_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "fpmd: --query-log: %s\n",
                   opened.message().c_str());
      return 1;
    }
    query_log.set_slow_threshold_ms(slow_query_ms);
  }

  ServerState state;
  MiningService::Options options;
  options.num_threads = static_cast<uint32_t>(threads);
  options.dataset_budget_bytes =
      static_cast<size_t>(data_budget_mb) * 1024 * 1024;
  options.cache_budget_bytes =
      static_cast<size_t>(cache_budget_mb) * 1024 * 1024;
  options.max_queue_depth = static_cast<size_t>(queue_depth);
  options.max_estimated_itemsets = max_itemsets;
  if (query_log.enabled()) options.query_log = &query_log;
  state.service = std::make_unique<MiningService>(options);

  if (clustered) {
    state.coordinator = std::make_unique<Coordinator>(cluster_options);
    Result<Endpoint> self = ParseEndpoint(cluster_options.self);
    state.tcp_listen_fd = ListenTcp(self.value());
    if (state.tcp_listen_fd < 0) return 1;
    state.coordinator->Start();
    std::fprintf(stderr, "fpmd: cluster node %s (%zu peers, %u replicas)\n",
                 cluster_options.self.c_str(), cluster_options.peers.size(),
                 cluster_options.replicas);
  }

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("socket");
    return 1;
  }
  state.listen_fd = listen_fd;
  ::unlink(socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    std::perror("bind");
    return 1;
  }
  if (::listen(listen_fd, 16) != 0) {
    std::perror("listen");
    return 1;
  }
  std::fprintf(stderr, "fpmd: listening on %s\n", socket_path.c_str());

  // Accept loop over both listeners (the TCP one exists only in cluster
  // mode). Each connection gets its own thread, so a node can serve a
  // peer's sub-query while one of its own connections waits on that
  // peer — no distributed lock-step. A thread is joined at the first
  // wakeup after its connection ends, so the daemon holds threads only
  // for open connections; the rest are joined before exit.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections;
  const auto join_finished = [&connections] {
    for (auto it = connections.begin(); it != connections.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };
  // Only the shutdown op ends the loop (it sets the flag, then shuts
  // the listeners down). Any other poll or accept failure, such as
  // running out of file descriptors, passes once connections close, so
  // the loop backs off instead of spinning and keeps accepting.
  const auto back_off = [&state] {
    if (!state.shutdown.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  bool served_once = false;
  while (!state.shutdown.load(std::memory_order_relaxed) && !served_once) {
    pollfd fds[2];
    fds[0] = pollfd{listen_fd, POLLIN, 0};
    nfds_t nfds = 1;
    if (state.tcp_listen_fd >= 0) {
      fds[1] = pollfd{state.tcp_listen_fd, POLLIN, 0};
      nfds = 2;
    }
    if (::poll(fds, nfds, -1) < 0) {
      back_off();
      continue;
    }
    join_finished();
    for (nfds_t i = 0; i < nfds; ++i) {
      if (fds[i].revents == 0) continue;
      const int fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (fd < 0) {
        back_off();
        continue;
      }
      if (once) {
        ServeConnection(&state, fd);
        served_once = true;
        break;
      }
      Connection& connection = connections.emplace_back();
      connection.thread = std::thread([&state, &connection, fd] {
        ServeConnection(&state, fd);
        connection.done.store(true, std::memory_order_release);
      });
    }
  }
  for (Connection& connection : connections) connection.thread.join();
  ::close(listen_fd);
  if (state.tcp_listen_fd >= 0) ::close(state.tcp_listen_fd);
  ::unlink(socket_path.c_str());
  std::fprintf(stderr, "fpmd: exiting\n");
  return 0;
}
