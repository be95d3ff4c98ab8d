#include "fpm/service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <list>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "fpm/common/json_writer.h"
#include "fpm/core/partition.h"
#include "fpm/obs/metrics.h"
#include "fpm/obs/prometheus.h"
#include "fpm/service/line_io.h"

namespace fpm {

namespace {

/// How long a connection waiting on jobs waits between checks that its
/// client is still there, and at most before it writes the reply of a
/// job that is not the oldest pending one.
constexpr std::chrono::milliseconds kJobWaitTick{5};

/// How long the accept loop pauses after a failed poll(), accept() or
/// thread start, so a lasting failure does not spin.
constexpr std::chrono::milliseconds kAcceptBackOff{10};

/// True when the peer has closed: a zero-byte read on a nonblocking
/// peek. Pending request bytes (pipelined queries) read as n > 0 and
/// keep the connection alive.
bool PeerClosed(int fd) {
  char byte;
  return ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) == 0;
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

}  // namespace

Server::Server(const MiningService::Options& options,
               std::optional<ClusterOptions> cluster)
    : service_(options) {
  if (cluster) coordinator_ = std::make_unique<Coordinator>(*cluster);
}

void Server::Run(std::vector<int> listeners) {
  listeners_ = std::move(listeners);
  if (coordinator_) coordinator_->Start();

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections;
  const auto join_finished = [&connections] {
    for (auto it = connections.begin(); it != connections.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        ::close(it->fd);
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };
  const auto back_off = [this] {
    if (!shutdown_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(kAcceptBackOff);
    }
  };

  std::vector<pollfd> fds;
  for (int fd : listeners_) fds.push_back(pollfd{fd, POLLIN, 0});
  // Only the shutdown op ends the loop (it sets the flag, then shuts the
  // listeners down). Any other failure passes once connections close.
  while (!shutdown_.load(std::memory_order_relaxed)) {
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      back_off();
      continue;
    }
    join_finished();
    for (const pollfd& listener : fds) {
      if (listener.revents == 0) continue;
      const int fd = ::accept(listener.fd, nullptr, nullptr);
      if (fd < 0) {
        back_off();
        continue;
      }
      Connection& connection = connections.emplace_back();
      connection.fd = fd;
      try {
        connection.thread = std::thread([this, &connection] {
          ServeConnection(connection.fd);
          // The client sees the end now; the fd closes at the join.
          ::shutdown(connection.fd, SHUT_RDWR);
          connection.done.store(true, std::memory_order_release);
        });
      } catch (const std::system_error&) {
        ::close(fd);
        connections.pop_back();
        back_off();
      }
    }
  }
  for (Connection& connection : connections) {
    ::shutdown(connection.fd, SHUT_RDWR);
  }
  for (Connection& connection : connections) {
    connection.thread.join();
    ::close(connection.fd);
  }
  for (int fd : listeners_) ::close(fd);
}

void Server::ServeConnection(int fd) {
  LineReader reader(fd);
  while (!shutdown_.load(std::memory_order_relaxed)) {
    std::string_view line;
    if (reader.Next(&line)) {
      if (!line.empty() && !Answer(fd, std::string(line))) return;
      continue;
    }
    const Status filled = reader.Fill();
    if (!filled.ok()) {
      if (filled.code() == StatusCode::kResourceExhausted) {
        // Best effort: the connection closes either way.
        WriteLine(fd, EncodeError(LineTooLong("request: line")));
      }
      return;
    }
  }
}

bool Server::Answer(int fd, const std::string& line) {
  Result<ServiceRequest> decoded = DecodeRequest(line);
  if (!decoded.ok()) return WriteLine(fd, EncodeError(decoded.status())).ok();
  const ServiceRequest& request = decoded.value();
  switch (request.op) {
    case ServiceRequest::Op::kQuery:
      return HandleQuery(fd, request.mine);
    case ServiceRequest::Op::kBatch:
      return StreamReplies(fd, request.batch, /*tagged=*/true);
    case ServiceRequest::Op::kShardQuery:
      if (request.cluster.shard_mode == ClusterOpRequest::ShardMode::kExecute) {
        // A whole-query forward: a normal job at boosted priority (the
        // coordinator on the other side already paid a hop and a wait).
        MineRequest boosted = request.mine;
        boosted.priority += kShardPriorityBoost;
        boosted.op = "shard_query";
        return StreamReply(fd, boosted);
      }
      break;
    case ServiceRequest::Op::kShutdown:
      WriteLine(fd, EncodeOk());
      shutdown_.store(true, std::memory_order_relaxed);
      // Wakes the accept loop, which then ends every connection.
      for (int listener : listeners_) ::shutdown(listener, SHUT_RDWR);
      return false;
    default:
      break;
  }
  return WriteLine(fd, Reply(request)).ok();
}

bool Server::StreamReplies(
    int fd, const std::vector<ServiceRequest::BatchEntry>& entries,
    bool tagged) {
  const auto reply_line = [tagged](uint64_t id,
                                   const Result<MineResponse>& response) {
    if (!response.ok()) {
      return tagged ? EncodeErrorWithId(id, response.status())
                    : EncodeError(response.status());
    }
    return tagged ? EncodeQueryResponseWithId(id, response.value())
                  : EncodeQueryResponse(response.value());
  };
  struct Pending {
    uint64_t id;
    std::shared_ptr<MineJob> job;
  };
  std::vector<Pending> pending;
  const auto cancel_all = [&pending] {
    for (Pending& p : pending) p.job->Cancel();
    for (Pending& p : pending) p.job->Wait();
    return false;
  };

  for (uint64_t id = 0; id < entries.size(); ++id) {
    const ServiceRequest::BatchEntry& entry = entries[id];
    Result<std::shared_ptr<MineJob>> submitted =
        entry.status.ok() ? service_.Submit(entry.request)
                          : Result<std::shared_ptr<MineJob>>(entry.status);
    if (submitted.ok()) {
      pending.push_back(Pending{id, std::move(submitted).value()});
    } else if (!WriteLine(fd, reply_line(id, submitted.status())).ok()) {
      return cancel_all();
    }
  }
  while (!pending.empty()) {
    const auto finished =
        std::find_if(pending.begin(), pending.end(),
                     [](const Pending& p) { return p.job->done(); });
    if (finished == pending.end()) {
      if (PeerClosed(fd)) return cancel_all();
      pending.front().job->WaitFor(kJobWaitTick);
      continue;
    }
    const std::string line = reply_line(finished->id, finished->job->Take());
    pending.erase(finished);
    if (!WriteLine(fd, line).ok()) return cancel_all();
  }
  return true;
}

bool Server::StreamReply(int fd, const MineRequest& request) {
  return StreamReplies(fd, {ServiceRequest::BatchEntry{Status::OK(), request}},
                       /*tagged=*/false);
}

// Handle-addressed queries ("id") are node-local names and never route.
// The response's query_id and trace_id are this node's: the client
// talked to us.
bool Server::HandleQuery(int fd, const MineRequest& request) {
  Coordinator* coordinator = coordinator_.get();
  if (coordinator == nullptr || request.dataset_path.empty()) {
    return StreamReply(fd, request);
  }
  Result<std::string> digest = coordinator->DigestForPath(request.dataset_path);
  if (!digest.ok()) {
    // Unreadable here may be readable nowhere; let the local submit
    // path produce the canonical error.
    return StreamReply(fd, request);
  }
  if (!request.scatter && coordinator->SelfOwns(digest.value())) {
    return StreamReply(fd, request);
  }

  const uint64_t query_id = service_.AllocateQueryId();
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
    MineResponse response = std::move(result).value();
    response.query_id = query_id;
    response.trace_id = request.trace_id;
    return WriteLine(fd, EncodeQueryResponse(response)).ok();
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
    return StreamReply(fd, local);
  }
  return WriteLine(fd, EncodeError(result.status())).ok();
}

std::string Server::Reply(const ServiceRequest& request) {
  switch (request.op) {
    case ServiceRequest::Op::kPing:
      return EncodeOk();
    case ServiceRequest::Op::kMetrics:
      return MetricsJson();
    case ServiceRequest::Op::kMetricsText:
      return EncodeMetricsTextResponse(MetricsText());
    case ServiceRequest::Op::kStats: {
      const ServiceStats stats = service_.Stats();
      std::string cluster;
      if (coordinator_) {
        cluster = coordinator_->InfoJson(stats.registry.datasets, "");
      }
      return EncodeStatsResponse(stats, cluster);
    }
    case ServiceRequest::Op::kClusterInfo:
      return ClusterInfoReply(request);
    case ServiceRequest::Op::kCacheProbe: {
      // The cache alone answers: no dataset load, no scheduler job, and
      // query_id stays 0.
      const std::optional<MineResponse> hit =
          service_.AnswerFromCache(request.mine, request.cluster.digest);
      if (coordinator_) coordinator_->NoteProbeServed(hit.has_value());
      if (!hit) return EncodeCacheProbeResponse(false, MineResponse{});
      return EncodeCacheProbeResponse(true, *hit);
    }
    case ServiceRequest::Op::kShardQuery:
      return ShardPartitionReply(request);
    case ServiceRequest::Op::kOpen:
    case ServiceRequest::Op::kAppend:
    case ServiceRequest::Op::kExpire:
    case ServiceRequest::Op::kWindow:
    case ServiceRequest::Op::kDatasetInfo:
      return DatasetReply(request);
    default:
      return EncodeError(Status::Internal("no one-line reply"));
  }
}

// Dataset ops are fast registry mutations, not scheduler jobs: they run
// inline on the connection thread.
std::string Server::DatasetReply(const ServiceRequest& request) {
  DatasetRegistry& registry = service_.registry();
  const DatasetOpRequest& op = request.dataset_op;
  Result<DatasetHandle> handle = Status::Internal("not a dataset op");
  switch (request.op) {
    case ServiceRequest::Op::kOpen:
      handle = registry.Open(op.path);
      break;
    case ServiceRequest::Op::kAppend:
      handle = registry.Append(op.id, op.transactions, op.timestamps);
      break;
    case ServiceRequest::Op::kExpire:
      handle = registry.Expire(op.id, op.count);
      break;
    case ServiceRequest::Op::kWindow:
      handle = registry.SetWindow(op.id, op.window);
      break;
    case ServiceRequest::Op::kDatasetInfo: {
      Result<DatasetInfo> info = registry.Info(op.id);
      if (!info.ok()) return EncodeError(info.status());
      return EncodeDatasetInfoResponse(info.value());
    }
    default:
      break;
  }
  if (!handle.ok()) return EncodeError(handle.status());
  return EncodeHandleResponse(handle.value());
}

// shard_query modes "mine" and "count": the SON phases over one
// partition, the registry lookup plus the pure shard functions of
// fpm/core/partition.h, inline on the connection thread like dataset
// ops. Malformed candidates come back from CountShardPartition as
// INVALID_ARGUMENT replies.
std::string Server::ShardPartitionReply(const ServiceRequest& request) {
  const ClusterOpRequest& cluster = request.cluster;
  DatasetRegistry& registry = service_.registry();
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

// The coordinator's view (peers, health, RTTs, shard counts, counters),
// plus the placement of a named dataset when the request carries one. A
// single node reports {"enabled":false} so tooling can always ask.
std::string Server::ClusterInfoReply(const ServiceRequest& request) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("cluster");
  if (coordinator_) {
    std::string digest;
    if (!request.cluster.path.empty()) {
      Result<std::string> resolved =
          coordinator_->DigestForPath(request.cluster.path);
      if (!resolved.ok()) return EncodeError(resolved.status());
      digest = resolved.value();
    }
    w.Raw(coordinator_->InfoJson(service_.Stats().registry.datasets, digest));
  } else {
    w.BeginObject().Key("enabled").Bool(false).EndObject();
  }
  w.Key("ok").Bool(true).EndObject();
  return out;
}

}  // namespace fpm
