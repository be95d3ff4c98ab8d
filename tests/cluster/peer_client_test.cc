// The real PeerClient and the ClusterMembership pinger against a local
// TCP listener: reply framing across many small writes, a peer that
// hangs up early, a reply over the line bound, a silent peer and the
// deadline, the abort hook, and the pinger's Start()/Stop() lifecycle
// with the default ping.

#include "fpm/cluster/peer_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/cluster/membership.h"
#include "fpm/service/line_io.h"

namespace fpm {
namespace {

using Clock = std::chrono::steady_clock;

// PeerClient::Call re-checks its deadline and abort hook once per poll.
constexpr double kPollTickSeconds = 0.05;

// A loopback TCP listener on an ephemeral port. Each test scripts what
// the peer does with the connections it accepts.
class Listener {
 public:
  Listener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (fd_ < 0 ||
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 16) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ADD_FAILURE() << "cannot listen on loopback";
      return;
    }
    port_ = ntohs(addr.sin_port);
  }
  ~Listener() {
    if (fd_ >= 0) ::close(fd_);
  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::string spec() const { return "127.0.0.1:" + std::to_string(port_); }

  Endpoint endpoint() const {
    Endpoint ep;
    ep.host = "127.0.0.1";
    ep.port = port_;
    return ep;
  }

  // Waits up to `timeout_ms` for a connection; -1 when none came.
  int Accept(int timeout_ms = 5000) const {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return -1;
    return ::accept(fd_, nullptr, nullptr);
  }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

// Reads up to and including the first newline; "" when the connection
// closed first.
std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    line.push_back(c);
    if (c == '\n') return line;
  }
  return "";
}

// True once the other side has closed: recv() reads end of stream.
bool SeesClose(int fd) {
  char c;
  return ::recv(fd, &c, 1, 0) == 0;
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

TEST(PeerClientTest, ReplyWrittenInSmallChunksComesBackWhole) {
  Listener listener;
  // Longer than one 4 KB read, sent 97 bytes at a time so the client
  // sees many partial reads before the newline.
  const std::string reply =
      "{\"ok\":true,\"text\":\"" + std::string(6000, 'x') + "\"}";
  std::string request_seen;
  std::thread peer([&] {
    const int fd = listener.Accept();
    if (fd < 0) return;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    request_seen = ReadLine(fd);
    const std::string line = reply + "\n";
    for (size_t i = 0; i < line.size(); i += 97) {
      SendAll(fd, line.substr(i, 97));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    SeesClose(fd);
    ::close(fd);
  });
  const Result<std::string> got =
      PeerClient::Call(listener.endpoint(), "{\"op\":\"ping\"}", 10.0);
  peer.join();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), reply);
  EXPECT_EQ(request_seen, "{\"op\":\"ping\"}\n");
}

TEST(PeerClientTest, PeerClosingBeforeTheNewlineIsUnavailable) {
  Listener listener;
  std::thread peer([&] {
    const int fd = listener.Accept();
    if (fd < 0) return;
    ReadLine(fd);
    SendAll(fd, "{\"ok\":tr");
    ::close(fd);
  });
  const Result<std::string> got =
      PeerClient::Call(listener.endpoint(), "{\"op\":\"ping\"}", 10.0);
  peer.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(got.status().message(),
            "peer " + listener.spec() + ": connection closed before response");
}

TEST(PeerClientTest, ReplyOverTheBoundIsResourceExhaustedAndCloses) {
  Listener listener;
  bool peer_saw_close = false;
  std::thread peer([&] {
    const int fd = listener.Accept();
    if (fd < 0) return;
    ReadLine(fd);
    // One byte past kMaxLineBytes and no newline.
    const std::string block(size_t{1} << 20, 'x');
    for (size_t sent = 0; sent < kMaxLineBytes; sent += block.size()) {
      SendAll(fd, block);
    }
    SendAll(fd, "x");
    peer_saw_close = SeesClose(fd);
    ::close(fd);
  });
  const Result<std::string> got =
      PeerClient::Call(listener.endpoint(), "{\"op\":\"ping\"}", 60.0);
  peer.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(got.status().message(),
            "peer " + listener.spec() + ": reply exceeds 268435456 bytes");
  EXPECT_TRUE(peer_saw_close);
}

TEST(PeerClientTest, SilentPeerHitsTheDeadline) {
  Listener listener;
  std::thread peer([&] {
    const int fd = listener.Accept();
    if (fd < 0) return;
    ReadLine(fd);
    SeesClose(fd);  // never answers; waits for the client to give up
    ::close(fd);
  });
  const double deadline = 0.3;
  const Clock::time_point start = Clock::now();
  const Result<std::string> got =
      PeerClient::Call(listener.endpoint(), "{\"op\":\"ping\"}", deadline);
  const double elapsed = SecondsSince(start);
  peer.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(got.status().message(),
            "peer " + listener.spec() + ": deadline exceeded");
  EXPECT_GE(elapsed, deadline);
  // The deadline is noticed at the next poll tick; the last 50 ms cover
  // scheduling on a loaded host.
  EXPECT_LT(elapsed, deadline + kPollTickSeconds + 0.05);
}

TEST(PeerClientTest, AbortHookCancelsAndClosesTheConnection) {
  Listener listener;
  std::atomic<bool> request_arrived{false};
  bool peer_saw_close = false;
  std::thread peer([&] {
    const int fd = listener.Accept();
    if (fd < 0) return;
    ReadLine(fd);
    request_arrived.store(true);
    peer_saw_close = SeesClose(fd);
    ::close(fd);
  });
  const Result<std::string> got = PeerClient::Call(
      listener.endpoint(), "{\"op\":\"ping\"}", /*deadline_seconds=*/0.0,
      [&] { return request_arrived.load(); });
  peer.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(got.status().message(),
            "peer " + listener.spec() + ": call aborted");
  // Closing is how the cancellation reaches the remote fpmd.
  EXPECT_TRUE(peer_saw_close);
}

// Answers {"ok":true} to every ping until stopped; counts the pings.
class PingServer {
 public:
  PingServer()
      : thread_([this] {
          while (!stop_.load()) {
            const int fd = listener_.Accept(/*timeout_ms=*/20);
            if (fd < 0) continue;
            if (ReadLine(fd) == "{\"op\":\"ping\"}\n") {
              // Counted before the reply, so a ping the client saw
              // answered is always counted.
              pings_.fetch_add(1);
              SendAll(fd, "{\"ok\":true}\n");
            }
            ::close(fd);
          }
        }) {}
  ~PingServer() {
    stop_.store(true);
    thread_.join();
  }

  std::string spec() const { return listener_.spec(); }
  int pings() const { return pings_.load(); }

 private:
  Listener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<int> pings_{0};
  std::thread thread_;
};

ClusterMembership::PeerStatus StatusOf(const ClusterMembership& membership,
                                       const std::string& endpoint) {
  for (const ClusterMembership::PeerStatus& peer : membership.Snapshot()) {
    if (peer.endpoint == endpoint) return peer;
  }
  ADD_FAILURE() << "no peer " << endpoint;
  return {};
}

TEST(ClusterMembershipTest, PingerMarksLiveHealthyAndClosedUnhealthy) {
  PingServer live;
  std::string closed;
  {
    Listener gone;
    closed = gone.spec();
  }  // closed before the first ping: connects are refused

  ClusterMembership::Options options;
  options.self = "127.0.0.1:1";
  options.peers = {options.self, live.spec(), closed};
  options.ping_interval_seconds = 0.02;
  options.ping_timeout_seconds = 1.0;
  ClusterMembership membership(options);  // the default PeerClient ping
  // Both peers start healthy; only the pinger can tell them apart.
  EXPECT_TRUE(membership.IsHealthy(closed));

  membership.Start();
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 10.0 &&
         (StatusOf(membership, live.spec()).pings < 2 ||
          StatusOf(membership, closed).failures < 2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(membership.IsHealthy(live.spec()));
  EXPECT_FALSE(membership.IsHealthy(closed));
  EXPECT_TRUE(membership.IsHealthy(options.self));

  membership.Stop();
  // Stop() joined the pinger: no sweep runs after it returns.
  const int served = live.pings();
  const uint64_t failures = StatusOf(membership, closed).failures;
  EXPECT_GE(served, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(live.pings(), served);
  EXPECT_EQ(StatusOf(membership, closed).failures, failures);
  EXPECT_EQ(StatusOf(membership, live.spec()).pings,
            static_cast<uint64_t>(served));
  membership.Stop();  // idempotent
}

}  // namespace
}  // namespace fpm
