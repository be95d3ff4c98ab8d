// The wire server: a MiningService (and, on a cluster node, a
// Coordinator) behind listening stream sockets, speaking the
// newline-delimited JSON protocol of fpm/service/protocol.h. The fpmd
// daemon (examples/fpmd.cpp) is flag parsing around one Server; tests
// run servers in-process.
//
// Threads. Run() is the accept loop. Each accepted connection gets its
// own thread, so a node can serve a peer's sub-query while one of its
// own connections waits on that peer. A connection's thread is joined,
// and its fd closed, at the accept loop's first wakeup after the
// connection ends; only the accept loop closes a connection's fd, so
// the fd the shutdown below acts on is never one the kernel has reused.
// A failed poll() or accept() (out of file descriptors, say) and a
// thread that cannot start (the connection is closed) back off and keep
// serving. Each connection closed for want of a thread counts in stats'
// "server" section, and the first of a burst (the refusals since a
// thread last started) prints one line to stderr.
//
// Requests. A connection's requests are answered in order, one reply
// line each. A batch streams one line per entry, tagged with the
// entry's "id", in completion order. A request line longer than
// kMaxLineBytes gets RESOURCE_EXHAUSTED and closes its connection only.
//
// Cancel on disconnect. While a connection waits on its jobs it checks
// every few milliseconds that its client is still there. When the
// client has gone, or a reply cannot be written, every job still
// pending is cancelled (it stops within one kernel frame) and waited
// for. A query forwarded to a cluster peer is aborted the same way.
//
// Shutdown. The "shutdown" op acknowledges, then stops the accept loop.
// Run() shuts down every open connection, which ends idle ones and
// cancels the jobs of busy ones, joins every connection thread, closes
// the listeners and returns.

#ifndef FPM_SERVICE_SERVER_H_
#define FPM_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fpm/cluster/coordinator.h"
#include "fpm/service/protocol.h"
#include "fpm/service/service.h"

namespace fpm {

class Server {
 public:
  /// A single node when `cluster` is empty. With `cluster` set, the
  /// server is a cluster node: path-addressed queries are placed on the
  /// hash ring and may be answered by a peer (DESIGN.md §19).
  explicit Server(const MiningService::Options& options,
                  std::optional<ClusterOptions> cluster = std::nullopt);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves what `listeners` (listening stream sockets, e.g. from
  /// ListenEndpoint; the server closes them) accept until a client
  /// sends "shutdown". Returns once every connection thread has been
  /// joined. Starts the cluster health pinger, if any. Call once.
  void Run(std::vector<int> listeners);

  MiningService& service() { return service_; }

 private:
  /// Answers the requests of one connection until it ends.
  void ServeConnection(int fd);

  /// Answers one request line. False when the connection is done.
  bool Answer(int fd, const std::string& line);

  /// Submits `entries` as one job each and writes each reply line as its
  /// job completes. A batch's lines (`tagged`) carry the entry's index
  /// as "id", and an entry that fails to decode or submit gets its
  /// error line at once; a single query's line carries no id. False when
  /// the connection is done: a write failed or the client went away,
  /// and every job still pending was cancelled and waited for.
  bool StreamReplies(int fd,
                     const std::vector<ServiceRequest::BatchEntry>& entries,
                     bool tagged);

  /// StreamReplies for one query.
  bool StreamReply(int fd, const MineRequest& request);

  /// A "query": mined here, or, on a cluster node that does not own a
  /// path-addressed dataset, probed and forwarded to its owners.
  bool HandleQuery(int fd, const MineRequest& request);

  /// Writes the query-log line of a query a peer answered (op "relay"),
  /// under the id the client got: the answering peer, the wall time of
  /// the exchange, the bytes of the line relayed to the client, and the
  /// owner's cache outcome and count, or the error the client got.
  void LogRelay(const MineRequest& request, const std::string& digest,
                uint64_t query_id, const Result<RelayedReply>& relayed,
                double remote_ms, size_t bytes_out);

  /// The one-line replies: every op but query, batch, shard_query and
  /// shutdown.
  std::string Reply(const ServiceRequest& request);
  std::string DatasetReply(const ServiceRequest& request);
  std::string ClusterInfoReply(const ServiceRequest& request);

  MiningService service_;
  QueryLog* const query_log_;                 ///< may be null
  std::unique_ptr<Coordinator> coordinator_;  ///< null on a single node
  std::vector<int> listeners_;
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> refused_connections_{0};
};

}  // namespace fpm

#endif  // FPM_SERVICE_SERVER_H_
