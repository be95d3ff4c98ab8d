// Endpoint grammar, dialer and listener tests. The parse-error strings
// are part of the user-facing contract — fpm_client prints them
// verbatim when --endpoint is malformed and the fpmd --cluster flag
// validation surfaces them at startup — so they are pinned EXACTLY
// here; change the wording in endpoint.cc and here together,
// deliberately.

#include "fpm/cluster/endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fpm {
namespace {

TEST(EndpointTest, ParsesTcpHostPort) {
  const Result<Endpoint> ep = ParseEndpoint("127.0.0.1:7101");
  ASSERT_TRUE(ep.ok()) << ep.status();
  EXPECT_FALSE(ep->is_unix());
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 7101);
  EXPECT_EQ(ep->ToString(), "127.0.0.1:7101");
}

TEST(EndpointTest, ParsesHostname) {
  const Result<Endpoint> ep = ParseEndpoint("node3:65535");
  ASSERT_TRUE(ep.ok()) << ep.status();
  EXPECT_EQ(ep->host, "node3");
  EXPECT_EQ(ep->port, 65535);
}

TEST(EndpointTest, AnythingWithASlashIsAUnixPath) {
  for (const std::string spec :
       {"/tmp/fpmd.sock", "./fpmd.sock", "/with:colon/sock"}) {
    const Result<Endpoint> ep = ParseEndpoint(spec);
    ASSERT_TRUE(ep.ok()) << spec << ": " << ep.status();
    EXPECT_TRUE(ep->is_unix()) << spec;
    EXPECT_EQ(ep->unix_path, spec);
    EXPECT_EQ(ep->ToString(), spec);
  }
}

TEST(EndpointTest, EmptySpecError) {
  const Result<Endpoint> ep = ParseEndpoint("");
  ASSERT_FALSE(ep.ok());
  EXPECT_EQ(ep.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ep.status().message(), "endpoint must not be empty");
}

TEST(EndpointTest, MissingColonError) {
  const Result<Endpoint> ep = ParseEndpoint("localhost");
  ASSERT_FALSE(ep.ok());
  EXPECT_EQ(ep.status().message(),
            "endpoint 'localhost': expected HOST:PORT or a Unix socket path");
}

TEST(EndpointTest, EmptyHostError) {
  const Result<Endpoint> ep = ParseEndpoint(":7100");
  ASSERT_FALSE(ep.ok());
  EXPECT_EQ(ep.status().message(), "endpoint ':7100': host must not be empty");
}

TEST(EndpointTest, BadPortErrors) {
  const struct {
    const char* spec;
    const char* message;
  } cases[] = {
      {"host:", "endpoint 'host:': port '' must be a number in [1, 65535]"},
      {"host:abc",
       "endpoint 'host:abc': port 'abc' must be a number in [1, 65535]"},
      {"host:0", "endpoint 'host:0': port '0' must be a number in [1, 65535]"},
      {"host:65536",
       "endpoint 'host:65536': port '65536' must be a number in [1, 65535]"},
      {"host:-1", "endpoint 'host:-1': port '-1' must be a number in "
                  "[1, 65535]"},
  };
  for (const auto& c : cases) {
    const Result<Endpoint> ep = ParseEndpoint(c.spec);
    ASSERT_FALSE(ep.ok()) << c.spec;
    EXPECT_EQ(ep.status().code(), StatusCode::kInvalidArgument) << c.spec;
    EXPECT_EQ(ep.status().message(), c.message);
  }
}

TEST(EndpointListTest, ParsesCommaSeparatedPeers) {
  const Result<std::vector<Endpoint>> list =
      ParseEndpointList("a:1,b:2,c:3");
  ASSERT_TRUE(list.ok()) << list.status();
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0].ToString(), "a:1");
  EXPECT_EQ((*list)[1].ToString(), "b:2");
  EXPECT_EQ((*list)[2].ToString(), "c:3");
}

TEST(EndpointListTest, EmptyEntryError) {
  const Result<std::vector<Endpoint>> list = ParseEndpointList("a:1,,b:2");
  ASSERT_FALSE(list.ok());
  EXPECT_EQ(list.status().message(), "endpoint list 'a:1,,b:2': empty entry");
}

TEST(EndpointListTest, RejectsUnixPaths) {
  const Result<std::vector<Endpoint>> list =
      ParseEndpointList("a:1,/tmp/fpmd.sock");
  ASSERT_FALSE(list.ok());
  EXPECT_EQ(list.status().message(),
            "endpoint list 'a:1,/tmp/fpmd.sock': '/tmp/fpmd.sock' is a Unix "
            "socket path; cluster peers must be HOST:PORT");
}

TEST(DialTest, MissingUnixSocketNamesTheEndpoint) {
  Endpoint ep;
  ep.unix_path = "/nonexistent-fpm-test-dir/fpmd.sock";
  const Result<int> fd = DialEndpoint(ep, 1.0);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kUnavailable);
  // "dial <endpoint>: connect: <strerror>" — pin the prefix, not the
  // locale-dependent errno text.
  EXPECT_EQ(fd.status().message().rfind(
                "dial /nonexistent-fpm-test-dir/fpmd.sock: connect: ", 0),
            0u)
      << fd.status().message();
}

TEST(DialTest, RefusedTcpPortNamesTheEndpoint) {
  // Port 1 on localhost is essentially never listening; a refused
  // connect must fail fast (within the dial timeout) and name the
  // endpoint and stage.
  Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = 1;
  const Result<int> fd = DialEndpoint(ep, 2.0);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().message().rfind("dial 127.0.0.1:1: ", 0), 0u)
      << fd.status().message();
}

TEST(ListenTest, TooLongUnixPathNamesTheEndpoint) {
  Endpoint ep;
  ep.unix_path = "/" + std::string(200, 'x');
  const Result<int> fd = ListenEndpoint(ep);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().message(),
            "listen " + ep.unix_path + ": bind: socket path too long");
}

TEST(ListenTest, ReplacesAStaleSocketButNoOtherFile) {
  Endpoint ep;
  ep.unix_path = testing::TempDir() + "/listen_stale.sock";
  ::unlink(ep.unix_path.c_str());
  Result<int> first = ListenEndpoint(ep);
  ASSERT_TRUE(first.ok()) << first.status();
  ::close(first.value());  // the socket file stays behind, stale
  Result<int> second = ListenEndpoint(ep);
  ASSERT_TRUE(second.ok()) << second.status();
  const Result<int> dialed = DialEndpoint(ep, 1.0);
  ASSERT_TRUE(dialed.ok()) << dialed.status();
  ::close(dialed.value());
  ::close(second.value());

  ::unlink(ep.unix_path.c_str());
  { std::ofstream(ep.unix_path) << "not a socket\n"; }
  const Result<int> refused = ListenEndpoint(ep);
  ASSERT_FALSE(refused.ok());
  const std::string prefix = "listen " + ep.unix_path + ": bind: ";
  EXPECT_EQ(refused.status().message().rfind(prefix, 0), 0u)
      << refused.status().message();
  std::ifstream kept(ep.unix_path);
  std::string line;
  EXPECT_TRUE(std::getline(kept, line));
  EXPECT_EQ(line, "not a socket");
}

TEST(ListenTest, TcpPortZeroListensOnAFreePort) {
  Endpoint any;
  any.host = "127.0.0.1";
  Result<int> fd = ListenEndpoint(any);
  ASSERT_TRUE(fd.ok()) << fd.status();
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  sockaddr* name = reinterpret_cast<sockaddr*>(&addr);
  ASSERT_EQ(::getsockname(fd.value(), name, &len), 0);
  Endpoint bound = any;
  bound.port = ntohs(addr.sin_port);
  EXPECT_NE(bound.port, 0);
  const Result<int> dialed = DialEndpoint(bound, 2.0);
  ASSERT_TRUE(dialed.ok()) << dialed.status();
  ::close(dialed.value());

  // The port is taken now; a second listener names it and the stage.
  const Result<int> taken = ListenEndpoint(bound);
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().message().rfind(
                "listen " + bound.ToString() + ": bind: ", 0),
            0u)
      << taken.status().message();
  ::close(fd.value());
}

}  // namespace
}  // namespace fpm
