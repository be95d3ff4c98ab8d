// Endpoint addressing shared by every dialer and listener: the
// PeerClient (coordinator probes and forwards) and fpm_client --endpoint dial
// through here, and fpmd listens through here on its Unix socket and
// its cluster TCP address, so "what does an address look like", "how
// long may a connect take" and "how is a socket bound" have exactly one
// answer. Only this module resolves host names.
//
// Two spellings:
//   host:port   a TCP endpoint ("127.0.0.1:7101", "node3:7100"). The
//               host may be a name or a numeric address; the port must
//               be in [1, 65535]. This is the only spelling cluster
//               peer lists accept.
//   <path>      a Unix-domain socket path — anything containing '/'
//               (e.g. "/tmp/fpmd.sock", "./fpmd.sock").
//
// Parse errors are part of the contract (fpm_client prints them
// verbatim and tests/cluster/endpoint_test.cc pins them), so change the
// wording deliberately.

#ifndef FPM_CLUSTER_ENDPOINT_H_
#define FPM_CLUSTER_ENDPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fpm/common/status.h"

namespace fpm {

/// One dialable address: TCP (host + port) or Unix-domain (path).
struct Endpoint {
  std::string host;       ///< TCP host; empty for Unix endpoints
  uint16_t port = 0;      ///< TCP port; 0 for Unix endpoints
  std::string unix_path;  ///< non-empty selects a Unix-domain socket

  bool is_unix() const { return !unix_path.empty(); }

  /// The canonical spelling ("host:port" or the path) — used in error
  /// messages, metrics labels and the ring's node names.
  std::string ToString() const;

  bool operator==(const Endpoint&) const = default;
};

/// Parses one endpoint spec (see the header comment for the grammar).
Result<Endpoint> ParseEndpoint(const std::string& spec);

/// Parses a comma-separated list of TCP endpoints — the --cluster flag.
/// Every entry must be host:port; Unix paths are rejected (a cluster
/// peer must be reachable from other machines).
Result<std::vector<Endpoint>> ParseEndpointList(const std::string& csv);

/// Connects to `endpoint` and returns the connected (blocking) fd.
/// The connect itself is non-blocking with a `timeout_seconds` poll so
/// a dead TCP peer fails fast instead of hanging in SYN retries.
/// Errors name the endpoint: "dial 127.0.0.1:7101: connect: ...".
Result<int> DialEndpoint(const Endpoint& endpoint, double timeout_seconds);

/// Binds `endpoint` and listens on it; returns the listening fd. A Unix
/// path must fit sockaddr_un, and a socket file already at the path (a
/// stale one left by a daemon that died) is removed first; any other
/// file there is left alone and the bind fails. A TCP endpoint binds
/// the first address its host resolves to that accepts the bind, with
/// SO_REUSEADDR; port 0 binds a free port (read it with getsockname).
/// Errors name the endpoint like DialEndpoint's:
/// "listen 127.0.0.1:7101: bind: Address already in use".
Result<int> ListenEndpoint(const Endpoint& endpoint);

}  // namespace fpm

#endif  // FPM_CLUSTER_ENDPOINT_H_
