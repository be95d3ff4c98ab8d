// One-shot peer RPC over the fpmd wire protocol: dial, send one
// newline-terminated JSON request, read one response line, close.
//
// The call is bounded two ways:
//   deadline_seconds — the whole call (connect + send + receive) must
//       finish inside it, or DEADLINE_EXCEEDED. This is the per-peer
//       deadline the Coordinator's replica-failover loop relies on: a
//       dead owner costs one deadline, not a hang.
//   abort            — polled every ~50 ms while waiting; returning
//       true cancels the call with CANCELLED and closes the
//       connection. Closing is the cancellation *propagation*: the
//       remote fpmd's connection thread sees the disconnect through
//       its MSG_PEEK poll and cancels the in-flight job, so an
//       upstream client abandoning a query stops it within one kernel
//       frame on every node it touched.
//
// Framing is fpm/service/line_io.h's, the same reader and writer fpmd
// uses: the request goes out in one gathered write, and the reply is
// searched for its newline once per received byte. A reply that grows
// past kMaxLineBytes (256 MiB) without a newline fails the call with
// RESOURCE_EXHAUSTED "peer H:P: reply exceeds 268435456 bytes" and
// closes the connection; the rest of the reply is never read.
//
// Connection-per-call keeps failure containment trivial (a wedged peer
// can never corrupt a shared connection's framing); at cluster
// forwarding rates the extra local connect is noise next to mining. Pooled
// keep-alive connections are a possible follow-on (DESIGN.md §19).

#ifndef FPM_CLUSTER_PEER_CLIENT_H_
#define FPM_CLUSTER_PEER_CLIENT_H_

#include <functional>
#include <string>

#include "fpm/cluster/endpoint.h"
#include "fpm/common/status.h"

namespace fpm {

class PeerClient {
 public:
  /// Polled while waiting; true aborts the call (see header comment).
  using AbortFn = std::function<bool()>;

  /// Sends `line` (newline appended) to `endpoint` and returns the
  /// response line (newline stripped). `deadline_seconds` <= 0 means
  /// no deadline (the abort hook is then the only bound). A transport
  /// failure is UNAVAILABLE "peer H:P: ..."; an over-long reply is
  /// RESOURCE_EXHAUSTED (see the header comment).
  static Result<std::string> Call(const Endpoint& endpoint,
                                  const std::string& line,
                                  double deadline_seconds,
                                  const AbortFn& abort = {});
};

}  // namespace fpm

#endif  // FPM_CLUSTER_PEER_CLIENT_H_
