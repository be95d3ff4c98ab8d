// The wire server in-process: servers on a Unix socket or loopback TCP
// (ephemeral ports only), driven by raw clients. Pipelining, batch
// streaming, cancel on disconnect, shutdown, the append item bound and
// a 2-node cluster forward. Nothing waits on a sleep: held jobs signal
// through the mine hook, cancellations through the query log, and every
// client read gives up after kReadTimeoutSeconds instead of hanging.

#include "fpm/service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/cluster/endpoint.h"
#include "fpm/obs/query_log.h"
#include "fpm/obs/trace.h"
#include "fpm/service/json.h"
#include "fpm/service/line_io.h"
#include "service/service_test_util.h"

namespace fpm {
namespace {

using test::DenseFimiText;
using test::SmallFimiText;
using test::WriteTempFimi;

constexpr int kReadTimeoutSeconds = 60;

/// A raw protocol client: one connection, whole lines each way.
class Client {
 public:
  explicit Client(const Endpoint& endpoint) {
    Result<int> fd = DialEndpoint(endpoint, 10.0);
    if (!fd.ok()) {
      ADD_FAILURE() << fd.status();
      return;
    }
    fd_ = fd.value();
    timeval timeout{kReadTimeoutSeconds, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    reader_ = std::make_unique<LineReader>(fd_);
  }
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Send(const std::string& lines) {
    ASSERT_TRUE(WriteLine(fd_, lines).ok());
  }

  /// The next reply line; empty once the server has closed (or after
  /// kReadTimeoutSeconds, which fails the test).
  std::string Read() {
    if (reader_ == nullptr) return "";
    Result<std::string_view> line = reader_->ReadLine();
    if (!line.ok()) {
      EXPECT_EQ(line.status().message(), "connection closed")
          << "no reply within " << kReadTimeoutSeconds << " s";
      return "";
    }
    return std::string(line.value());
  }

  JsonValue ReadJson() {
    const std::string line = Read();
    Result<JsonValue> parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << line;
    return parsed.ok() ? parsed.value() : JsonValue();
  }

  /// True when the server closed the connection with no further reply.
  bool ReadsEndOfStream() {
    Result<std::string_view> line = reader_->ReadLine();
    return !line.ok() && line.status().message() == "connection closed";
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    reader_.reset();
  }

 private:
  int fd_ = -1;
  std::unique_ptr<LineReader> reader_;
};

/// A query-log sink the test can wait on.
class LogLines : public std::streambuf {
 public:
  /// Waits until the log holds `needle`; false after 60 s.
  bool WaitFor(const std::string& needle) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(60), [&] {
      return text_.find(needle) != std::string::npos;
    });
  }

  std::string text() {
    std::lock_guard<std::mutex> lock(mu_);
    return text_;
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard<std::mutex> lock(mu_);
    text_.append(s, static_cast<size_t>(n));
    cv_.notify_all();
    return n;
  }
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      std::lock_guard<std::mutex> lock(mu_);
      text_.push_back(traits_type::to_char_type(c));
      cv_.notify_all();
    }
    return traits_type::not_eof(c);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string text_;
};

/// Signals the first call of the mine hook, then (optionally) holds the
/// job that made it until Release().
class HookGate {
 public:
  explicit HookGate(bool hold) : hold_(hold) {}

  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    if (hold_) cv_.wait(lock, [this] { return released_; });
  }

  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(60),
                        [this] { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const bool hold_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

/// A listening socket of the test's own choosing: a fresh Unix path, or
/// loopback TCP on a free port.
struct Listener {
  int fd = -1;
  Endpoint endpoint;
};

Listener ListenUnix(const std::string& name) {
  Listener listener;
  listener.endpoint.unix_path = testing::TempDir() + "/" + name + ".sock";
  Result<int> fd = ListenEndpoint(listener.endpoint);
  EXPECT_TRUE(fd.ok()) << fd.status();
  listener.fd = fd.ok() ? fd.value() : -1;
  return listener;
}

Listener ListenLoopback() {
  Listener listener;
  listener.endpoint.host = "127.0.0.1";
  Result<int> fd = ListenEndpoint(listener.endpoint);
  EXPECT_TRUE(fd.ok()) << fd.status();
  if (!fd.ok()) return listener;
  listener.fd = fd.value();
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  ::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr), &len);
  listener.endpoint.port = ntohs(addr.sin_port);
  return listener;
}

MiningService::Options SmallOptions(QueryLog* query_log = nullptr) {
  MiningService::Options options;
  options.num_threads = 2;
  options.watchdog_interval_seconds = 0.0;
  options.query_log = query_log;
  return options;
}

/// A Server running on its own thread. The destructor sends "shutdown"
/// unless the test did, and joins the thread Run() runs on.
class RunningServer {
 public:
  RunningServer(Listener listener, MiningService::Options options,
                std::optional<ClusterOptions> cluster = std::nullopt)
      : endpoint_(listener.endpoint), server_(options, std::move(cluster)) {
    runner_ = std::thread([this, fd = listener.fd] { server_.Run({fd}); });
  }
  ~RunningServer() {
    if (runner_.joinable()) {
      Client(endpoint_).Send("{\"op\":\"shutdown\"}");
      runner_.join();
    }
  }

  const Endpoint& endpoint() const { return endpoint_; }
  Server& server() { return server_; }

  /// Waits for Run() to return.
  void Join() { runner_.join(); }

 private:
  Endpoint endpoint_;
  Server server_;
  std::thread runner_;
};

std::string QueryLine(const std::string& path, int min_support,
                      const std::string& extra = "") {
  return "{\"op\":\"query\",\"dataset\":\"" + path +
         "\",\"min_support\":" + std::to_string(min_support) + extra + "}";
}

std::string ErrorCode(const JsonValue& reply) {
  return reply["error"]["code"].string_value();
}

TEST(ServerTest, PipelinedRequestsAreAnsweredInOrder) {
  const std::string path = WriteTempFimi("server_pipeline.dat",
                                         SmallFimiText());
  RunningServer running(ListenUnix("server_pipeline"), SmallOptions());
  Client client(running.endpoint());
  // One write, five requests: the replies come back one per line, in
  // request order, whatever each one costs.
  client.Send(QueryLine(path, 2) + "\n{\"op\":\"ping\"}\n" +
              QueryLine(path, 3, ",\"count_only\":true") +
              "\n{\"op\":\"query\"\n{\"op\":\"ping\"}");

  const JsonValue first = client.ReadJson();
  EXPECT_TRUE(first["ok"].bool_value());
  EXPECT_EQ(first["cache"].string_value(), "miss");
  EXPECT_EQ(first["num_results"].int_value(), 7);
  EXPECT_EQ(first["itemsets"].array_items().size(), 7u);
  EXPECT_EQ(client.Read(), "{\"ok\":true}");
  const JsonValue third = client.ReadJson();
  EXPECT_TRUE(third["ok"].bool_value());
  EXPECT_EQ(third["cache"].string_value(), "dominated");
  EXPECT_EQ(third["num_results"].int_value(), 6);
  EXPECT_TRUE(third["itemsets"].is_null());
  const JsonValue fourth = client.ReadJson();
  EXPECT_FALSE(fourth["ok"].bool_value());
  EXPECT_EQ(ErrorCode(fourth), "INVALID_ARGUMENT");
  EXPECT_EQ(client.Read(), "{\"ok\":true}");
}

TEST(ServerTest, BatchLinesCarryTheirIdInCompletionOrder) {
  const std::string path = WriteTempFimi("server_batch.dat", SmallFimiText());
  HookGate gate(/*hold=*/true);
  RunningServer running(ListenUnix("server_batch"), SmallOptions());
  MiningService& service = running.server().service();
  // Entry 0 is submitted first; the hook holds exactly its job, by the
  // query id the service will give it, while the others complete.
  const uint64_t held_query_id = service.AllocateQueryId() + 1;
  service.set_mine_hook_for_test([&gate, held_query_id] {
    if (Tracer::ThreadQueryId() == held_query_id) gate.Enter();
  });

  Client client(running.endpoint());
  client.Send("{\"op\":\"batch\",\"queries\":[{\"dataset\":\"" + path +
              "\",\"min_support\":2},{\"min_support\":2},{\"dataset\":\"" +
              path + "\",\"min_support\":3},{\"dataset\":\"" + path +
              "\",\"min_support\":2,\"task\":\"closed\"}]}");
  ASSERT_TRUE(gate.WaitEntered());

  std::set<int64_t> ids;
  for (int i = 0; i < 3; ++i) {
    const JsonValue line = client.ReadJson();
    const int64_t id = line["id"].int_value();
    EXPECT_TRUE(ids.insert(id).second) << "id " << id << " twice";
    if (id == 1) {
      EXPECT_FALSE(line["ok"].bool_value());
      EXPECT_EQ(ErrorCode(line), "INVALID_ARGUMENT");
    } else {
      EXPECT_TRUE(line["ok"].bool_value()) << "id " << id;
    }
  }
  EXPECT_EQ(ids, (std::set<int64_t>{1, 2, 3}));

  gate.Release();
  const JsonValue held = client.ReadJson();
  EXPECT_EQ(held["id"].int_value(), 0);
  EXPECT_TRUE(held["ok"].bool_value());
  EXPECT_EQ(held["num_results"].int_value(), 7);
}

TEST(ServerTest, DisconnectCancelsTheQueryAndOthersAreServed) {
  const std::string path = WriteTempFimi("server_cancel.dat", DenseFimiText());
  LogLines log_lines;
  std::ostream log_stream(&log_lines);
  QueryLog query_log;
  query_log.SetStream(&log_stream);
  HookGate started(/*hold=*/false);
  RunningServer running(ListenUnix("server_cancel"), SmallOptions(&query_log));
  running.server().service().set_mine_hook_for_test(
      [&started] { started.Enter(); });

  Client other(running.endpoint());
  Client asking(running.endpoint());
  // Support 1 over the dense dataset: far more itemsets than any test
  // could wait for, so only a cancellation ends the job.
  asking.Send(QueryLine(path, 1));
  ASSERT_TRUE(started.WaitEntered());
  other.Send("{\"op\":\"ping\"}");
  EXPECT_EQ(other.Read(), "{\"ok\":true}");

  asking.Close();
  EXPECT_TRUE(log_lines.WaitFor("\"status\":\"cancelled\""))
      << log_lines.text();
  other.Send("{\"op\":\"ping\"}");
  EXPECT_EQ(other.Read(), "{\"ok\":true}");
}

TEST(ServerTest, ShutdownEndsEveryConnectionAndRunReturns) {
  const std::string path = WriteTempFimi("server_shutdown.dat",
                                         DenseFimiText());
  HookGate started(/*hold=*/false);
  RunningServer running(ListenUnix("server_shutdown"), SmallOptions());
  running.server().service().set_mine_hook_for_test(
      [&started] { started.Enter(); });

  Client idle(running.endpoint());
  idle.Send("{\"op\":\"ping\"}");
  EXPECT_EQ(idle.Read(), "{\"ok\":true}");
  Client busy(running.endpoint());
  busy.Send(QueryLine(path, 1));
  ASSERT_TRUE(started.WaitEntered());

  Client closing(running.endpoint());
  closing.Send("{\"op\":\"shutdown\"}");
  EXPECT_EQ(closing.Read(), "{\"ok\":true}");
  // Run() returns only with every connection thread joined: the idle
  // connection and the one mining for ever included.
  running.Join();
  EXPECT_TRUE(closing.ReadsEndOfStream());
  EXPECT_TRUE(idle.ReadsEndOfStream());
  EXPECT_TRUE(busy.ReadsEndOfStream());
}

TEST(ServerTest, AppendRefusesAnItemAboveTheLargestId) {
  const std::string path = WriteTempFimi("server_append.dat", SmallFimiText());
  RunningServer running(ListenUnix("server_append"), SmallOptions());
  Client client(running.endpoint());
  client.Send("{\"op\":\"open\",\"dataset\":\"" + path + "\"}");
  const JsonValue opened = client.ReadJson();
  ASSERT_TRUE(opened["ok"].bool_value());
  const std::string id = opened["id"].string_value();

  client.Send("{\"op\":\"append\",\"id\":\"" + id +
              "\",\"transactions\":[[1,2],[16777216]]}");
  EXPECT_EQ(client.Read(),
            "{\"error\":{\"code\":\"INVALID_ARGUMENT\",\"message\":"
            "\"transactions[1]: item 16777216 exceeds the largest item id "
            "16777215\"},\"ok\":false}");
  client.Send("{\"op\":\"append\",\"id\":\"" + id +
              "\",\"transactions\":[[16777215]]}");
  const JsonValue appended = client.ReadJson();
  EXPECT_TRUE(appended["ok"].bool_value());
  EXPECT_EQ(appended["version"].int_value(), 2);
}

TEST(ServerTest, NonOwnerForwardsToTheOwnerThenHitsItsCache) {
  const std::string path = WriteTempFimi("server_cluster.dat", SmallFimiText());
  Listener first = ListenLoopback();
  Listener second = ListenLoopback();
  ClusterOptions cluster;
  cluster.peers = {first.endpoint.ToString(), second.endpoint.ToString()};
  cluster.replicas = 1;
  cluster.ping_interval_seconds = 0.0;  // health moves with traffic only
  std::vector<std::unique_ptr<RunningServer>> nodes;
  for (Listener listener : {first, second}) {
    ClusterOptions node = cluster;
    node.self = listener.endpoint.ToString();
    nodes.push_back(
        std::make_unique<RunningServer>(listener, SmallOptions(), node));
  }
  const auto cluster_info = [&path](RunningServer& node) {
    Client client(node.endpoint());
    client.Send("{\"op\":\"cluster_info\",\"dataset\":\"" + path + "\"}");
    return client.ReadJson()["cluster"];
  };
  const JsonValue placement = cluster_info(*nodes[0])["placement"];
  ASSERT_EQ(placement["owners"].array_items().size(), 1u);
  const std::string owner_endpoint =
      placement["owners"].array_items()[0].string_value();
  const bool first_owns = owner_endpoint == cluster.peers[0];
  RunningServer& owner = *nodes[first_owns ? 0 : 1];
  RunningServer& non_owner = *nodes[first_owns ? 1 : 0];

  Client client(non_owner.endpoint());
  client.Send(QueryLine(path, 2));
  const JsonValue forwarded = client.ReadJson();
  EXPECT_TRUE(forwarded["ok"].bool_value());
  EXPECT_EQ(forwarded["peer"].string_value(), owner_endpoint);
  EXPECT_EQ(forwarded["cache"].string_value(), "miss");
  EXPECT_EQ(forwarded["num_results"].int_value(), 7);

  client.Send(QueryLine(path, 2));
  const JsonValue probed = client.ReadJson();
  EXPECT_TRUE(probed["ok"].bool_value());
  EXPECT_EQ(probed["peer"].string_value(), owner_endpoint);
  EXPECT_EQ(probed["cache"].string_value(), "hit");
  EXPECT_EQ(probed["itemsets"], forwarded["itemsets"]);

  const JsonValue asked = cluster_info(non_owner)["counters"];
  EXPECT_EQ(asked["probe_misses"].int_value(), 1);
  EXPECT_EQ(asked["forwards"].int_value(), 1);
  EXPECT_EQ(asked["probe_hits"].int_value(), 1);
  const JsonValue served = cluster_info(owner)["counters"];
  EXPECT_EQ(served["probe_misses_served"].int_value(), 1);
  EXPECT_EQ(served["probe_hits_served"].int_value(), 1);
  // Only the owner mined; the non-owner's cache never saw the query.
  EXPECT_EQ(non_owner.server().service().cache().stats().misses, 0u);
  EXPECT_EQ(owner.server().service().cache().stats().misses, 2u);
}

}  // namespace
}  // namespace fpm
