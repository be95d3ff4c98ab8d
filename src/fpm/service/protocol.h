// Wire protocol of the fpmd daemon: newline-delimited JSON over a
// stream socket. One request object per line in; responses are one
// object per line, in request order — except "batch", which streams one
// tagged line per query in completion order.
//
// Framing: each request and each response is one JSON object on one
// '\n'-terminated line of at most kMaxLineBytes (256 MiB) before the
// newline; fpm/service/line_io.h is the only reader and writer of it.
// fpmd skips empty lines. A longer line is refused as soon as more than
// kMaxLineBytes bytes have arrived without a newline:
//   fpmd (request)         replies {"error":{"code":"RESOURCE_EXHAUSTED",
//       "message":"request: line exceeds 268435456 bytes"},"ok":false}
//       and closes that connection; its other connections are served on.
//   PeerClient (reply)     fails the call with RESOURCE_EXHAUSTED
//       "peer H:P: reply exceeds 268435456 bytes" and closes.
//   fpm_client (reply)     prints "reply exceeds 268435456 bytes" and
//       exits 1.
//
// Protocol v2 requests:
//   {"op":"ping"}
//   {"op":"metrics"}                       -> the metrics snapshot
//   {"op":"metrics_text"}                  -> {"ok":true,"text":"..."}:
//       the metrics snapshot rendered in Prometheus text exposition
//       format (scrape via `fpm_client metrics-text`)
//   {"op":"stats"}                         -> live service state:
//       {"ok":true,"uptime_seconds":X,"registry":{...,"datasets":[...]},
//       "cache":{...},"scheduler":{...,"in_flight":[{"query_id":N,
//       "age_seconds":X},...]},"server":{"refused_connections":N},
//       "windows":[{"window_s":1,...},...],"watchdog":{...}}
//   {"op":"shutdown"}                      -> daemon exits after reply
//   {"op":"open","dataset":"<path>"}       -> load (or hit) and return a
//       dataset handle: {"ok":true,"id":"ds-1","version":1,
//       "latest_version":1,"digest":"...","num_transactions":N,
//       "total_weight":N}. The id addresses the dataset in every other
//       op; reopening the same path returns the same id.
//   {"op":"append","id":"ds-1",
//    "transactions":[[1,2,5],...],         (required, non-empty)
//    "timestamps":[t0,...]}                (optional; len == transactions)
//       appends transactions as a new immutable dataset version (window
//       policy overflow expires in the same version) -> handle response
//       for the new version.
//   {"op":"expire","id":"ds-1","count":N}  -> expire the N oldest live
//       transactions as a new version; handle response.
//   {"op":"window","id":"ds-1",
//    "last_n":N,"last_seconds":X}          (>=1 of the two, 0 = unbounded)
//       installs a sliding-window policy; overflow expires immediately.
//       Handle response for the resulting latest version.
//   {"op":"dataset_info","id":"ds-1"}      -> {"ok":true,"id":...,
//       "path":...,"live_transactions":N,"window":{...},
//       "versions":[{"version":N,"digest":...,"num_transactions":N,
//       "appended_weight":N,"expired_weight":N},...]}
//   {"op":"query","dataset":"<path>","min_support":N,
//    "id":"ds-1",                           (alternative to "dataset")
//    "version":N,                           (with "id"; default latest)
//    "task":"frequent|closed|maximal|top_k|rules",  (default "frequent")
//    "k":N,                                 (top_k: required >= 1)
//    "min_confidence":X,                    (rules; default 0.5)
//    "min_lift":X,                          (rules; default 0)
//    "max_consequent":N,                    (rules; default 1)
//    "algorithm":"lcm|eclat|fpgrowth|apriori|hmine|bruteforce",
//    "patterns":"all|none",                 (default "all")
//    "priority":N,                          (default 0)
//    "timeout_s":X,                         (default none)
//    "count_only":bool,                     (default false)
//    "trace_id":"..."}                      (optional passthrough,
//                                            echoed in the response and
//                                            the query log)
//   {"op":"batch","queries":[{<query fields>},...]}
//       multiplexes N queries on one connection; each runs as its own
//       scheduler job and its response line streams back as soon as it
//       completes (no head-of-line blocking), tagged with "id" = the
//       query's index in the array. A malformed or rejected entry
//       yields an error line for that id only — the rest of the batch
//       proceeds (per-query error isolation). Exactly one line per
//       query, in completion order; the client counts lines.
//
// Cluster ops (fpmd --cluster; see DESIGN.md §19):
//   {"op":"cluster_info","dataset":"<path>"} ("dataset" optional) ->
//       {"ok":true,"cluster":{"enabled":true,"self":...,"replicas":N,
//       "virtual_nodes":N,"peers":[{"endpoint":...,"healthy":...,
//       "self":...,"failures":N,"rtt_last_ms":X,"rtt_p50_ms":X,
//       "rtt_p99_ms":X,"datasets_owned":N},...],"counters":{...},
//       "placement":{"digest":...,"owners":[...]}}}; placement present
//       only when "dataset" was given. A non-clustered daemon answers
//       {"cluster":{"enabled":false},"ok":true}.
//   {"op":"cache_probe","digest":"...",<query fields minus dataset>}
//       asks whether this node's ResultCache can answer the query for
//       the given content digest without mining. Reply: miss ->
//       {"hit":false,"ok":true}; hit -> the full query response plus
//       "hit":true (query_id is 0 — probes are not scheduled queries).
//       The asking node relays a hit, like the answer to a shard_query
//       "execute", to its client without decoding it
//       (RelayQueryResponse).
//   {"op":"shard_query","mode":"execute",<query fields>}
//       a query forwarded by a node that does not own its dataset: run
//       here as a normal scheduler job at boosted priority and answered
//       like "query". Any other mode is INVALID_ARGUMENT
//       "op 'shard_query': field 'mode': expected 'execute'".
//
// Any other op, "mine" (the retired v1 op) included, is answered with
// INVALID_ARGUMENT "request: field 'op': unknown op '<name>'", and the
// connection keeps serving.
//
// Responses always carry "ok". Success:
//   {"ok":true,...}   query adds: task, num_results, cache ("miss|hit|
//                     dominated|cross_task|reseeded"), digest, queue_ms,
//                     mine_ms, query_id (the service-assigned request
//                     id, also on the query-log line and the
//                     service.mine span), trace_id (echoed when the
//                     request sent one), and — unless count_only —
//                     "itemsets":[{"items":[...],"support":N},...] in
//                     deterministic emission order or — for task
//                     "rules" — "rules":[{"antecedent":[...],
//                     "consequent":[...],"support":N,"confidence":X,
//                     "lift":X},...]. Batch lines additionally carry
//                     "id".
// Failure:
//   {"ok":false,"error":{"code":"CANCELLED","message":"..."}}
//       (plus "id" inside a batch)
//
// Decode errors name the op and field being parsed, e.g.
//   op 'query': field 'min_support': missing or not a number >= 1
//   op 'batch': queries[2]: field 'dataset': missing or not a string
// An integer field takes only an integral number inside its type's
// range: 4294967297 is not a min_support, nor 1.5 a count.
//
// Every line fpmd and its peers write comes from one writer
// (fpm/common/json_writer.h), appended straight into the line with its
// keys in ascending byte order and numbers printed by the writer's one
// rule; a relayed answer is an owner's line, checked against that form
// and copied, with its envelope keys rewritten by the same writer.
// protocol_test's goldens pin each encoder's and the relay's bytes, and
// the session transcript tools/service_session.txt pins a whole daemon
// session. Requests are parsed into a read-only JsonValue
// (fpm/service/json.h); a repeated key keeps its last value. Replies are
// read by one one-pass reader that builds no tree and accepts only the
// writer's form, top-level keys strictly ascending: RelayQueryResponse,
// ReplyStatus and DecodeMetricsTextResponse.
//
// The encode/decode layer lives here, separate from socket handling, so
// tests exercise it without a daemon.

#ifndef FPM_SERVICE_PROTOCOL_H_
#define FPM_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fpm/common/status.h"
#include "fpm/dataset/versioned.h"
#include "fpm/service/service.h"

namespace fpm {

/// The decoded payload of a dataset op (open/append/expire/window/
/// dataset_info). Only the fields the op uses are populated.
struct DatasetOpRequest {
  std::string path;                     ///< open
  std::string id;                       ///< every op but open
  std::vector<Itemset> transactions;    ///< append
  std::vector<double> timestamps;       ///< append (optional)
  uint64_t count = 0;                   ///< expire
  WindowPolicy window;                  ///< window
};

/// The decoded payload of a cluster op (cluster_info/cache_probe). The
/// query body of a cache_probe or shard_query rides in
/// ServiceRequest::mine.
struct ClusterOpRequest {
  std::string path;    ///< cluster_info placement lookup
  std::string digest;  ///< cache_probe content digest
};

/// A decoded protocol request.
struct ServiceRequest {
  enum class Op {
    kPing,
    kMetrics,
    kMetricsText,
    kStats,
    kShutdown,
    kQuery,
    kBatch,
    kOpen,
    kAppend,
    kExpire,
    kWindow,
    kDatasetInfo,
    kClusterInfo,
    kCacheProbe,
    kShardQuery,
  };

  /// One entry of a batch. Entries that fail to decode carry the error
  /// in `status` and are answered with a per-id error line; the rest of
  /// the batch is unaffected.
  struct BatchEntry {
    Status status;
    MineRequest request;
  };

  Op op = Op::kPing;
  MineRequest mine;               ///< kQuery, kCacheProbe, kShardQuery
  std::vector<BatchEntry> batch;  ///< populated for kBatch
  DatasetOpRequest dataset_op;    ///< populated for the dataset ops
  ClusterOpRequest cluster;       ///< populated for the cluster ops
};

/// The fields of a relayed query reply that are the entry node's, not
/// the owner's (see RelayQueryResponse).
struct RelayEnvelope {
  std::string_view peer;      ///< the owner that answered
  uint64_t query_id = 0;      ///< the entry's id for the query
  std::string_view trace_id;  ///< the client's; the key is left out if empty
};

/// A peer's answer as the relay passes it on: the line for the client,
/// and what the relay's one pass read of it for the entry's query log.
struct RelayedReply {
  std::string line;  ///< empty for a cache_probe miss
  std::string peer;  ///< the envelope's peer: the owner that answered
  CacheOutcome cache = CacheOutcome::kMiss;  ///< the owner's "cache"
  uint64_t num_results = 0;                  ///< the owner's "num_results"
};

/// Decodes one request line. InvalidArgument on malformed JSON, unknown
/// op, or bad field types; errors name the op and field. Algorithm
/// names follow ParseAlgorithm() (fpm/core/patterns.h), task names
/// ParseTask() (fpm/algo/query.h).
Result<ServiceRequest> DecodeRequest(const std::string& line);

/// Encodes a query success response (one line, no trailing newline):
/// "task", "num_results", and "rules" for rules tasks.
std::string EncodeQueryResponse(const MineResponse& response);

/// v2 query response tagged with a batch query id.
std::string EncodeQueryResponseWithId(uint64_t id,
                                      const MineResponse& response);

/// Encodes a dataset handle response (open/append/expire/window):
/// id, version, latest_version, digest, parent_digest (non-base
/// versions only), num_transactions and total_weight of the version's
/// materialized database.
std::string EncodeHandleResponse(const DatasetHandle& handle);

/// Encodes a dataset_info response: id, path, live_transactions, the
/// window policy and the full version chain.
std::string EncodeDatasetInfoResponse(const DatasetInfo& info);

/// Encodes the "stats" response: uptime, registry (with per-dataset
/// rows), cache, scheduler (with in-flight jobs), the server's refused
/// connections, the 1s/10s/60s latency windows and the watchdog
/// counters. A non-empty `cluster` is
/// embedded as the "cluster" section: one JSON object, the text
/// Coordinator::InfoJson returns.
std::string EncodeStatsResponse(const ServiceStats& stats,
                                std::string_view cluster = {});

// --- Cluster wire helpers (coordinator <-> peer) -------------------

/// Encodes a cache_probe request line for a peer: the query body of
/// `request` (task family, algorithm, patterns, ...) addressed by
/// content digest instead of a dataset path — the peer consults its
/// ResultCache without loading anything.
std::string EncodeCacheProbeRequest(const std::string& digest,
                                    const MineRequest& request);

/// Encodes the shard_query "execute" line that forwards the whole query
/// of `request` to an owner.
std::string EncodeShardQueryRequest(const MineRequest& request);

/// Encodes a cache_probe reply: {"hit":false,"ok":true} on miss, the
/// full query response plus "hit":true on hit.
std::string EncodeCacheProbeResponse(bool hit, const MineResponse& response);

/// Relays a peer's answer to a forwarded query (a shard_query "execute"
/// reply; `probe` false) or to a cache_probe (`probe` true) as the line
/// the entry node writes to its client, without decoding it. The line
/// is the owner's bytes with "hit" dropped and "peer", "query_id" and
/// "trace_id" set from `envelope`, each in its sorted key slot; a probe
/// miss ({"hit":false,"ok":true}) returns an empty line.
///
/// One pass checks the reply, reads each number once, and records where
/// each member sits and the answer's cache outcome and count. It
/// accepts exactly what EncodeQueryResponse and EncodeCacheProbeResponse
/// write: no whitespace, keys strictly ascending, every key those
/// always write present ("cache", "digest", "mine_ms", "num_results",
/// "ok":true, "query_id", "queue_ms", "task", and "hit":true on a probe)
/// and no key they never write ("peer" included: only the relay writes
/// it), integers as plain digits, and strings
/// with the writer's escapes and no byte below 0x20, so a relayed line
/// never holds a newline. It applies the range checks the service's own
/// types need: item ids below kInvalidItem, supports within 32 bits,
/// "num_results" and "query_id" within 64, canonical task and
/// cache names, finite numbers for the timings and each rule's
/// confidence and lift, and rules with exactly their five members. The
/// timing fields keep the owner's text.
///
/// An {"ok":false,...} envelope in the writer's form becomes the status
/// it carries, as ReplyStatus reads it. Any other reply it refuses is
/// INTERNAL "peer response: ...": the peer, not the query, is at fault,
/// so the coordinator moves on to the next owner.
Result<RelayedReply> RelayQueryResponse(std::string_view reply, bool probe,
                                        const RelayEnvelope& envelope);

/// Reads the top-level "ok" of any line fpmd writes, in one pass that
/// skips the members it does not read and builds nothing. OK for
/// "ok":true and for an object without "ok" (the metrics snapshot). An
/// {"error":{"code":C,"message":M},...,"ok":false} envelope is the
/// status it carries; a code that is "OK" or no StatusCode's name reads
/// as INTERNAL, and {"ok":false} without an error as INTERNAL "peer
/// reported an error without detail". A line the writer would not
/// write (whitespace, top-level keys not strictly ascending, an escape
/// it never uses, nesting deeper than ParseJson's bound, an "error"
/// beside "ok":true) is INTERNAL "peer response: ...".
Status ReplyStatus(std::string_view reply);

/// Encodes the "metrics_text" response: the Prometheus exposition text
/// as a JSON string field ({"ok":true,"text":"..."}).
std::string EncodeMetricsTextResponse(const std::string& text);

/// The text of a "metrics_text" response, decoded from exactly what
/// EncodeMetricsTextResponse writes. An error envelope is the status it
/// carries (see ReplyStatus); any other line is INTERNAL "peer
/// response: ...".
Result<std::string> DecodeMetricsTextResponse(std::string_view line);

/// Encodes an error response from a non-OK status.
std::string EncodeError(const Status& status);

/// Error response tagged with a batch query id.
std::string EncodeErrorWithId(uint64_t id, const Status& status);

/// Encodes a bare {"ok":true} (ping/shutdown acknowledgements).
std::string EncodeOk();

}  // namespace fpm

#endif  // FPM_SERVICE_PROTOCOL_H_
