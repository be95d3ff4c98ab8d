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
//       "age_seconds":X},...]},"windows":[{"window_s":1,...},...],
//       "watchdog":{...}}
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
//   {"op":"query",...,"scatter":true}       opts the query into the
//       partitioned (SON) fan-out across replica owners instead of
//       route-to-owner; results come back canonically sorted. Ignored
//       by a non-clustered daemon.
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
//   {"op":"shard_query","mode":"execute|mine|count",<query fields>,
//    "partition":{"index":I,"count":K},      (mine/count)
//    "candidates":[[...],...]}               (count)
//       peer-to-peer sub-query op. "execute" runs the whole query
//       locally at boosted priority (route-to-owner forward); "mine"
//       runs SON phase 1 on partition I of K and replies
//       {"ok":true,"phase":"mine","candidates":[{"items":[...],
//       "support":N},...]}; "count" counts the candidate list over the
//       partition and replies {"counts":[...],"ok":true,
//       "phase":"count"}.
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
// rule. protocol_test's goldens pin each encoder's bytes, and the
// session transcript tools/service_session.txt pins a whole daemon
// session. Requests are parsed into a read-only JsonValue
// (fpm/service/json.h); a repeated key keeps its last value.
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

/// The decoded payload of a cluster op (cluster_info/cache_probe/
/// shard_query). The query body itself rides in ServiceRequest::mine.
struct ClusterOpRequest {
  /// What a shard_query asks the peer to run.
  enum class ShardMode {
    kExecute,  ///< whole query, locally, at boosted priority
    kMine,     ///< SON phase 1 over one partition
    kCount,    ///< SON phase 2: count candidates over one partition
  };

  std::string path;                ///< cluster_info placement lookup
  std::string digest;              ///< cache_probe content digest
  ShardMode shard_mode = ShardMode::kExecute;
  uint32_t partition_index = 0;    ///< shard_query mine/count
  uint32_t partition_count = 1;    ///< shard_query mine/count
  std::vector<Itemset> candidates; ///< shard_query count
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

/// A decoded cache_probe reply: `hit` says whether `response` is
/// populated (task/cache/itemsets/rules of the remote cache's answer).
struct CacheProbeReply {
  bool hit = false;
  MineResponse response;
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
/// rows), cache, scheduler (with in-flight jobs), the 1s/10s/60s
/// latency windows and the watchdog counters. A non-empty `cluster` is
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

/// Encodes a shard_query request line. `mode` "execute" forwards the
/// whole query; "mine"/"count" carry partition {index, count} and —
/// for count — the candidate itemsets.
std::string EncodeShardQueryRequest(const MineRequest& request,
                                    ClusterOpRequest::ShardMode mode,
                                    uint32_t partition_index,
                                    uint32_t partition_count,
                                    const std::vector<Itemset>& candidates);

/// Encodes a cache_probe reply: {"hit":false,"ok":true} on miss, the
/// full query response plus "hit":true on hit.
std::string EncodeCacheProbeResponse(bool hit, const MineResponse& response);

/// Encodes a shard_query mode "mine" reply (the shard's local frequent
/// itemsets, i.e. its candidate contributions).
std::string EncodeShardMineResponse(
    const std::vector<CollectingSink::Entry>& entries);

/// Encodes a shard_query mode "count" reply (per-candidate supports in
/// request candidate order).
std::string EncodeShardCountResponse(const std::vector<Support>& counts);

/// Decodes a peer's v2 query (or shard_query "execute") response line
/// back into a MineResponse. An {"ok":false,...} envelope becomes the
/// carried status (code parsed from the error's "code").
Result<MineResponse> DecodeQueryResponse(const std::string& line);

/// Decodes a peer's cache_probe reply.
Result<CacheProbeReply> DecodeCacheProbeResponse(const std::string& line);

/// Decodes a peer's shard_query "mine" reply.
Result<std::vector<CollectingSink::Entry>> DecodeShardMineResponse(
    const std::string& line);

/// Decodes a peer's shard_query "count" reply.
Result<std::vector<Support>> DecodeShardCountResponse(const std::string& line);

/// Encodes the "metrics_text" response: the Prometheus exposition text
/// as a JSON string field ({"ok":true,"text":"..."}).
std::string EncodeMetricsTextResponse(const std::string& text);

/// Encodes an error response from a non-OK status.
std::string EncodeError(const Status& status);

/// Error response tagged with a batch query id.
std::string EncodeErrorWithId(uint64_t id, const Status& status);

/// Encodes a bare {"ok":true} (ping/shutdown acknowledgements).
std::string EncodeOk();

}  // namespace fpm

#endif  // FPM_SERVICE_PROTOCOL_H_
