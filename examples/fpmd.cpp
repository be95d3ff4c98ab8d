// fpmd — the mining query daemon: a Server (fpm/service/server.h) on a
// Unix-domain stream socket, speaking newline-delimited JSON
// (fpm/service/protocol.h).
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
//
// Cluster mode (DESIGN.md §19) — --cluster and --self together:
//     --cluster=H1:P1,H2:P2,...  the full static peer list (identical
//                            on every node; it builds the hash ring)
//     --self=H:P             this node's entry in that list; also the
//                            TCP listen address (served alongside the
//                            Unix socket)
//     --replicas=N           replica owners per dataset (default 2)
//     --ping-interval-s=X    peer health ping period (default 2)
//
// fpmd prints "fpmd: listening on PATH" to stderr once every listener
// accepts connections, and exits 0 after the "shutdown" op.
//
// Talk to it with examples/fpm_client.cpp, or by hand:
//   printf '{"op":"ping"}\n' | nc -U /tmp/fpmd.sock

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fpm/cluster/coordinator.h"
#include "fpm/cluster/endpoint.h"
#include "fpm/obs/metrics.h"
#include "fpm/obs/query_log.h"
#include "fpm/service/server.h"

namespace {

using namespace fpm;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--threads=N] [--data-budget-mb=N] "
               "[--cache-budget-mb=N] [--queue-depth=N] [--max-itemsets=N] "
               "[--query-log=FILE] [--slow-query-ms=N] "
               "[--cluster=H:P,... --self=H:P [--replicas=N] "
               "[--ping-interval-s=X]]\n",
               argv0);
  return 2;
}

/// The cluster options of --cluster, --self and --replicas; prints the
/// problem and returns nullopt when they do not make a cluster.
std::optional<ClusterOptions> ParseCluster(const std::string& cluster_list,
                                           const std::string& self_endpoint,
                                           long replicas) {
  if (cluster_list.empty() || self_endpoint.empty() || replicas < 1) {
    std::fprintf(stderr,
                 "fpmd: cluster mode needs --cluster, --self and "
                 "--replicas >= 1\n");
    return std::nullopt;
  }
  Result<std::vector<Endpoint>> peers = ParseEndpointList(cluster_list);
  if (!peers.ok()) {
    std::fprintf(stderr, "fpmd: --cluster: %s\n",
                 peers.status().message().c_str());
    return std::nullopt;
  }
  Result<Endpoint> self = ParseEndpoint(self_endpoint);
  if (!self.ok() || self.value().is_unix()) {
    std::fprintf(stderr, "fpmd: --self must be HOST:PORT\n");
    return std::nullopt;
  }
  ClusterOptions options;
  bool self_listed = false;
  for (const Endpoint& peer : peers.value()) {
    options.peers.push_back(peer.ToString());
    self_listed |= peer == self.value();
  }
  if (!self_listed) {
    std::fprintf(stderr, "fpmd: --self %s is not in the --cluster list\n",
                 self.value().ToString().c_str());
    return std::nullopt;
  }
  options.self = self.value().ToString();
  options.replicas = static_cast<uint32_t>(replicas);
  return options;
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
  std::string cluster_list;
  std::string self_endpoint;
  long replicas = 2;
  double ping_interval_s = 2.0;
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
    } else if (arg.rfind("--cluster=", 0) == 0) {
      cluster_list = arg.substr(10);
    } else if (arg.rfind("--self=", 0) == 0) {
      self_endpoint = arg.substr(7);
    } else if (arg.rfind("--replicas=", 0) == 0) {
      replicas = std::atol(arg.c_str() + 11);
    } else if (arg.rfind("--ping-interval-s=", 0) == 0) {
      ping_interval_s = std::atof(arg.c_str() + 18);
    } else {
      return Usage(argv[0]);
    }
  }
  if (socket_path.empty() || threads < 0 || queue_depth < 1) {
    return Usage(argv[0]);
  }
  std::optional<ClusterOptions> cluster;
  if (!cluster_list.empty() || !self_endpoint.empty()) {
    cluster = ParseCluster(cluster_list, self_endpoint, replicas);
    if (!cluster) return 2;
    cluster->ping_interval_seconds = ping_interval_s;
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

  MiningService::Options options;
  options.num_threads = static_cast<uint32_t>(threads);
  options.dataset_budget_bytes =
      static_cast<size_t>(data_budget_mb) * 1024 * 1024;
  options.cache_budget_bytes =
      static_cast<size_t>(cache_budget_mb) * 1024 * 1024;
  options.max_queue_depth = static_cast<size_t>(queue_depth);
  options.max_estimated_itemsets = max_itemsets;
  if (query_log.enabled()) options.query_log = &query_log;
  Server server(options, cluster);

  // Both listeners accept before the ready line: clients connect as soon
  // as they read it. The TCP one goes first, so failing to bind it leaves
  // no socket file behind.
  std::vector<Endpoint> endpoints;
  if (cluster) endpoints.push_back(ParseEndpoint(cluster->self).value());
  Endpoint unix_socket;
  unix_socket.unix_path = socket_path;
  endpoints.push_back(unix_socket);
  std::vector<int> listeners;
  for (const Endpoint& endpoint : endpoints) {
    Result<int> listener = ListenEndpoint(endpoint);
    if (!listener.ok()) {
      std::fprintf(stderr, "fpmd: %s\n", listener.status().message().c_str());
      for (int fd : listeners) ::close(fd);
      return 1;
    }
    listeners.push_back(listener.value());
  }
  if (cluster) {
    std::fprintf(stderr, "fpmd: cluster node %s (%zu peers, %u replicas)\n",
                 cluster->self.c_str(), cluster->peers.size(),
                 cluster->replicas);
  }
  std::fprintf(stderr, "fpmd: listening on %s\n", socket_path.c_str());

  server.Run(std::move(listeners));
  ::unlink(socket_path.c_str());
  std::fprintf(stderr, "fpmd: exiting\n");
  return 0;
}
