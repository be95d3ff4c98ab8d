#include "fpm/service/protocol.h"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "fpm/common/cancel.h"
#include "fpm/common/json_writer.h"
#include "fpm/service/json.h"

namespace fpm {

namespace {

Status FieldError(const std::string& where, const std::string& field,
                  const std::string& what) {
  return Status::InvalidArgument(where + ": field '" + field + "': " + what);
}

// Reads `value` as an integer of type T no smaller than `min`. Only an
// integral number within [min, max of T] passes: a fraction or an
// out-of-range number is rejected instead of cast, since the cast would
// wrap (2^32 + 1 becomes 1) or be undefined. Returns false on a bad
// value; each caller reports it with its own field's message.
template <typename T>
bool DecodeInteger(const JsonValue& value, T min, T* out) {
  if (!value.is_number()) return false;
  const double v = value.number_value();
  // 2^digits is the first integer past T's maximum, exact as a double.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(v >= static_cast<double>(min) && v < limit) || v != std::trunc(v)) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

// Appends the items of a JSON array to `out`. Every entry must be an
// integer in [0, kInvalidItem): the sentinel itself is not an item.
// Returns false at the first bad entry; each caller reports that in its
// own error shape.
bool DecodeItems(const std::vector<JsonValue>& values, Itemset* out) {
  out->reserve(out->size() + values.size());
  for (const JsonValue& value : values) {
    Item item;
    if (!DecodeInteger(value, Item{0}, &item) || item == kInvalidItem) {
      return false;
    }
    out->push_back(item);
  }
  return true;
}

// Decodes the shared query request body from `doc`. `where` labels
// errors ("op 'query'", "op 'batch': queries[3]", ...). `with_dataset`
// is false only for "cache_probe", whose query is addressed by content
// digest rather than a dataset.
Status DecodeMineBody(const JsonValue& doc, const std::string& where,
                      bool with_dataset, MineRequest* out) {
  if (with_dataset) {
    const JsonValue& dataset = doc["dataset"];
    const JsonValue& id = doc["id"];
    if (!id.is_null()) {
      // Handle addressing: "id" (+ optional "version") instead of a
      // path. Mutually exclusive with "dataset".
      if (!id.is_string() || id.string_value().empty()) {
        return FieldError(where, "id", "not a non-empty string");
      }
      if (!dataset.is_null()) {
        return FieldError(where, "dataset",
                          "mutually exclusive with 'id'");
      }
      out->dataset_id = id.string_value();
      const JsonValue& version = doc["version"];
      if (!version.is_null()) {
        if (version.is_string() && version.string_value() == "latest") {
          out->dataset_version = 0;
        } else if (!DecodeInteger(version, uint64_t{1},
                                  &out->dataset_version)) {
          return FieldError(where, "version",
                            "not a number >= 1 or 'latest'");
        }
      }
    } else {
      if (!dataset.is_string() || dataset.string_value().empty()) {
        return FieldError(where, "dataset", "missing or not a string");
      }
      out->dataset_path = dataset.string_value();
    }
  }

  if (!DecodeInteger(doc["min_support"], Support{1},
                     &out->query.min_support)) {
    return FieldError(where, "min_support",
                      "missing or not a number >= 1");
  }

  const JsonValue& task = doc["task"];
  if (!task.is_null()) {
    if (!task.is_string()) {
      return FieldError(where, "task", "not a string");
    }
    Result<MiningTask> parsed = ParseTask(task.string_value());
    if (!parsed.ok()) {
      return FieldError(where, "task", parsed.status().message());
    }
    out->query.task = parsed.value();
  }

  const JsonValue& k = doc["k"];
  if (!k.is_null() && !DecodeInteger(k, uint64_t{1}, &out->query.k)) {
    return FieldError(where, "k", "not a number >= 1");
  }

  const JsonValue& confidence = doc["min_confidence"];
  if (!confidence.is_null()) {
    if (!confidence.is_number() || confidence.number_value() < 0.0 ||
        confidence.number_value() > 1.0) {
      return FieldError(where, "min_confidence", "not a number in [0, 1]");
    }
    out->query.min_confidence = confidence.number_value();
  }

  const JsonValue& lift = doc["min_lift"];
  if (!lift.is_null()) {
    if (!lift.is_number() || lift.number_value() < 0.0) {
      return FieldError(where, "min_lift", "not a non-negative number");
    }
    out->query.min_lift = lift.number_value();
  }

  const JsonValue& max_consequent = doc["max_consequent"];
  if (!max_consequent.is_null() &&
      !DecodeInteger(max_consequent, uint32_t{1},
                     &out->query.max_consequent)) {
    return FieldError(where, "max_consequent", "not a number >= 1");
  }

  const Status valid = out->query.Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument(where + ": " + valid.message());
  }

  const JsonValue& algorithm = doc["algorithm"];
  if (!algorithm.is_null()) {
    if (!algorithm.is_string()) {
      return FieldError(where, "algorithm", "not a string");
    }
    Result<Algorithm> parsed = ParseAlgorithm(algorithm.string_value());
    if (!parsed.ok()) {
      return FieldError(where, "algorithm", parsed.status().message());
    }
    out->algorithm = parsed.value();
  }

  const JsonValue& patterns = doc["patterns"];
  out->patterns = PatternSet::All();
  if (!patterns.is_null()) {
    if (!patterns.is_string()) {
      return FieldError(where, "patterns", "not a string");
    }
    const std::string& p = patterns.string_value();
    if (p == "all") {
      out->patterns = PatternSet::All();
    } else if (p == "none") {
      out->patterns = PatternSet::None();
    } else {
      return FieldError(where, "patterns", "expected 'all' or 'none'");
    }
  }

  const JsonValue& priority = doc["priority"];
  if (!priority.is_null() &&
      !DecodeInteger(priority, std::numeric_limits<int>::min(),
                     &out->priority)) {
    return FieldError(where, "priority", "not a number");
  }

  const JsonValue& timeout = doc["timeout_s"];
  if (!timeout.is_null()) {
    if (!timeout.is_number() || !TimeoutInRange(timeout.number_value())) {
      return FieldError(where, "timeout_s",
                        "not a number in [0, " +
                            std::to_string(kMaxTimeoutSeconds) + "]");
    }
    out->timeout_seconds = timeout.number_value();
  }

  const JsonValue& count_only = doc["count_only"];
  if (!count_only.is_null()) {
    if (!count_only.is_bool()) {
      return FieldError(where, "count_only", "not a bool");
    }
    out->count_only = count_only.bool_value();
  }

  const JsonValue& trace_id = doc["trace_id"];
  if (!trace_id.is_null()) {
    if (!trace_id.is_string()) {
      return FieldError(where, "trace_id", "not a string");
    }
    out->trace_id = trace_id.string_value();
  }

  const JsonValue& scatter = doc["scatter"];
  if (!scatter.is_null()) {
    if (!scatter.is_bool()) {
      return FieldError(where, "scatter", "not a bool");
    }
    out->scatter = scatter.bool_value();
  }

  return Status::OK();
}

// Decodes a "candidates" array ([[items...],...]) for shard_query count.
Status DecodeCandidates(const JsonValue& doc, const std::string& where,
                        std::vector<Itemset>* out) {
  const JsonValue& candidates = doc["candidates"];
  if (!candidates.is_array()) {
    return FieldError(where, "candidates", "missing or not an array");
  }
  const std::vector<JsonValue>& rows = candidates.array_items();
  out->reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const std::string label = "candidates[" + std::to_string(i) + "]";
    if (!rows[i].is_array() || rows[i].array_items().empty()) {
      return FieldError(where, label, "not a non-empty array");
    }
    Itemset set;
    if (!DecodeItems(rows[i].array_items(), &set)) {
      return FieldError(where, label, "items must be numbers >= 0");
    }
    out->push_back(std::move(set));
  }
  return Status::OK();
}

// Decodes the required "id" field of a dataset op.
Status DecodeDatasetId(const JsonValue& doc, const std::string& where,
                       DatasetOpRequest* out) {
  const JsonValue& id = doc["id"];
  if (!id.is_string() || id.string_value().empty()) {
    return FieldError(where, "id", "missing or not a string");
  }
  out->id = id.string_value();
  return Status::OK();
}

Status DecodeAppendBody(const JsonValue& doc, const std::string& where,
                        DatasetOpRequest* out) {
  FPM_RETURN_IF_ERROR(DecodeDatasetId(doc, where, out));
  const JsonValue& txns = doc["transactions"];
  if (!txns.is_array() || txns.array_items().empty()) {
    return FieldError(where, "transactions",
                      "missing or not a non-empty array");
  }
  const std::vector<JsonValue>& rows = txns.array_items();
  out->transactions.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const std::string label = "transactions[" + std::to_string(i) + "]";
    if (!rows[i].is_array() || rows[i].array_items().empty()) {
      return FieldError(where, label, "not a non-empty array");
    }
    Itemset txn;
    if (!DecodeItems(rows[i].array_items(), &txn)) {
      return FieldError(where, label, "items must be numbers >= 0");
    }
    out->transactions.push_back(std::move(txn));
  }
  const JsonValue& timestamps = doc["timestamps"];
  if (!timestamps.is_null()) {
    if (!timestamps.is_array()) {
      return FieldError(where, "timestamps", "not an array");
    }
    const std::vector<JsonValue>& ts = timestamps.array_items();
    if (ts.size() != rows.size()) {
      return FieldError(where, "timestamps",
                        "length must match 'transactions'");
    }
    out->timestamps.reserve(ts.size());
    for (const JsonValue& t : ts) {
      if (!t.is_number()) {
        return FieldError(where, "timestamps", "entries must be numbers");
      }
      out->timestamps.push_back(t.number_value());
    }
  }
  return Status::OK();
}

Status DecodeExpireBody(const JsonValue& doc, const std::string& where,
                        DatasetOpRequest* out) {
  FPM_RETURN_IF_ERROR(DecodeDatasetId(doc, where, out));
  if (!DecodeInteger(doc["count"], uint64_t{1}, &out->count)) {
    return FieldError(where, "count", "missing or not a number >= 1");
  }
  return Status::OK();
}

Status DecodeWindowBody(const JsonValue& doc, const std::string& where,
                        DatasetOpRequest* out) {
  FPM_RETURN_IF_ERROR(DecodeDatasetId(doc, where, out));
  const JsonValue& last_n = doc["last_n"];
  if (!last_n.is_null() &&
      !DecodeInteger(last_n, uint64_t{0}, &out->window.last_n)) {
    return FieldError(where, "last_n", "not a number >= 0");
  }
  const JsonValue& last_seconds = doc["last_seconds"];
  if (!last_seconds.is_null()) {
    if (!last_seconds.is_number() || last_seconds.number_value() < 0.0) {
      return FieldError(where, "last_seconds", "not a number >= 0");
    }
    out->window.last_seconds = last_seconds.number_value();
  }
  return Status::OK();
}

void WriteItemArray(JsonWriter& w, const Itemset& set) {
  w.BeginArray();
  for (Item item : set) w.Uint(item);
  w.EndArray();
}

// [{"items":[...],"support":N},...] in the entries' order.
void WriteItemsets(JsonWriter& w,
                   const std::vector<CollectingSink::Entry>& itemsets) {
  w.BeginArray();
  for (const CollectingSink::Entry& e : itemsets) {
    w.BeginObject().Key("items");
    WriteItemArray(w, e.first);
    w.Key("support").Uint(e.second).EndObject();
  }
  w.EndArray();
}

// A query response line. `hit` adds a cache_probe hit's "hit":true and
// `id` a batch line's entry index, each in its sorted slot.
std::string QueryResponseLine(const MineResponse& response, bool hit,
                              std::optional<uint64_t> id) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("cache").String(CacheOutcomeName(response.cache));
  w.Key("digest").String(response.dataset_digest);
  if (hit) w.Key("hit").Bool(true);
  if (id.has_value()) w.Key("id").Uint(*id);
  if (!response.itemsets.empty()) {
    w.Key("itemsets");
    WriteItemsets(w, response.itemsets);
  }
  w.Key("mine_ms").Number(response.mine_seconds * 1000.0);
  w.Key("num_results").Uint(response.num_frequent);
  w.Key("ok").Bool(true);
  if (!response.served_by.empty()) w.Key("peer").String(response.served_by);
  w.Key("query_id").Uint(response.query_id);
  w.Key("queue_ms").Number(response.queue_seconds * 1000.0);
  if (!response.rules.empty()) {
    w.Key("rules").BeginArray();
    for (const AssociationRule& r : response.rules) {
      w.BeginObject().Key("antecedent");
      WriteItemArray(w, r.antecedent);
      w.Key("confidence").Number(r.confidence).Key("consequent");
      WriteItemArray(w, r.consequent);
      w.Key("lift").Number(r.lift);
      w.Key("support").Uint(r.itemset_support).EndObject();
    }
    w.EndArray();
  }
  if (response.shard_count > 0) w.Key("shards").Uint(response.shard_count);
  w.Key("task").String(TaskName(response.task));
  if (!response.trace_id.empty()) w.Key("trace_id").String(response.trace_id);
  w.EndObject();
  return out;
}

// An error line; `id` tags a batch entry's.
std::string ErrorLine(const Status& status, std::optional<uint64_t> id) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("error").BeginObject();
  w.Key("code").String(StatusCodeToString(status.code()));
  w.Key("message").String(status.message());
  w.EndObject();
  if (id.has_value()) w.Key("id").Uint(*id);
  w.Key("ok").Bool(false).EndObject();
  return out;
}

// What an outbound cache_probe or shard_query line carries besides the
// query body.
struct PeerRequestFields {
  const char* op = "";
  const std::string* digest = nullptr;  // cache_probe: replaces the dataset
  const char* mode = nullptr;           // shard_query
  bool partitioned = false;             // shard_query mine/count
  uint32_t partition_index = 0;
  uint32_t partition_count = 1;
  const std::vector<Itemset>* candidates = nullptr;  // shard_query count
};

// An outbound peer request line: the query body of `request`, mirroring
// what DecodeMineBody accepts, merged with `fields` in ascending key
// order.
std::string PeerRequestLine(const MineRequest& request,
                            const PeerRequestFields& fields) {
  const bool with_dataset = fields.digest == nullptr;
  const bool by_id = with_dataset && !request.dataset_id.empty();
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("algorithm").String(AlgorithmName(request.algorithm));
  if (fields.candidates != nullptr) {
    w.Key("candidates").BeginArray();
    for (const Itemset& set : *fields.candidates) WriteItemArray(w, set);
    w.EndArray();
  }
  if (request.count_only) w.Key("count_only").Bool(true);
  if (with_dataset && !by_id) w.Key("dataset").String(request.dataset_path);
  if (!with_dataset) w.Key("digest").String(*fields.digest);
  if (by_id) w.Key("id").String(request.dataset_id);
  if (request.query.task == MiningTask::kTopK) {
    w.Key("k").Uint(request.query.k);
  }
  if (request.query.task == MiningTask::kRules) {
    w.Key("max_consequent").Uint(request.query.max_consequent);
    w.Key("min_confidence").Number(request.query.min_confidence);
    w.Key("min_lift").Number(request.query.min_lift);
  }
  w.Key("min_support").Uint(request.query.min_support);
  if (fields.mode != nullptr) w.Key("mode").String(fields.mode);
  w.Key("op").String(fields.op);
  if (fields.partitioned) {
    w.Key("partition").BeginObject();
    w.Key("count").Uint(fields.partition_count);
    w.Key("index").Uint(fields.partition_index);
    w.EndObject();
  }
  w.Key("patterns").String(
      request.patterns.bits() == PatternSet::All().bits() ? "all" : "none");
  if (request.priority != 0) w.Key("priority").Int(request.priority);
  w.Key("task").String(TaskName(request.query.task));
  if (request.timeout_seconds > 0.0) {
    w.Key("timeout_s").Number(request.timeout_seconds);
  }
  if (!request.trace_id.empty()) w.Key("trace_id").String(request.trace_id);
  if (by_id && request.dataset_version != 0) {
    w.Key("version").Uint(request.dataset_version);
  }
  w.EndObject();
  return out;
}

}  // namespace

Result<ServiceRequest> DecodeRequest(const std::string& line) {
  FPM_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const JsonValue& op = doc["op"];
  if (!op.is_string()) {
    return FieldError("request", "op", "missing or not a string");
  }

  ServiceRequest request;
  const std::string& name = op.string_value();
  const std::string where = "op '" + name + "'";
  if (name == "ping") {
    request.op = ServiceRequest::Op::kPing;
    return request;
  }
  if (name == "metrics") {
    request.op = ServiceRequest::Op::kMetrics;
    return request;
  }
  if (name == "metrics_text") {
    request.op = ServiceRequest::Op::kMetricsText;
    return request;
  }
  if (name == "stats") {
    request.op = ServiceRequest::Op::kStats;
    return request;
  }
  if (name == "shutdown") {
    request.op = ServiceRequest::Op::kShutdown;
    return request;
  }
  if (name == "query") {
    request.op = ServiceRequest::Op::kQuery;
    FPM_RETURN_IF_ERROR(DecodeMineBody(doc, where, /*with_dataset=*/true,
                                       &request.mine));
    return request;
  }
  if (name == "open") {
    request.op = ServiceRequest::Op::kOpen;
    const JsonValue& dataset = doc["dataset"];
    if (!dataset.is_string() || dataset.string_value().empty()) {
      return FieldError(where, "dataset", "missing or not a string");
    }
    request.dataset_op.path = dataset.string_value();
    return request;
  }
  if (name == "append") {
    request.op = ServiceRequest::Op::kAppend;
    FPM_RETURN_IF_ERROR(DecodeAppendBody(doc, where, &request.dataset_op));
    return request;
  }
  if (name == "expire") {
    request.op = ServiceRequest::Op::kExpire;
    FPM_RETURN_IF_ERROR(DecodeExpireBody(doc, where, &request.dataset_op));
    return request;
  }
  if (name == "window") {
    request.op = ServiceRequest::Op::kWindow;
    FPM_RETURN_IF_ERROR(DecodeWindowBody(doc, where, &request.dataset_op));
    return request;
  }
  if (name == "dataset_info") {
    request.op = ServiceRequest::Op::kDatasetInfo;
    FPM_RETURN_IF_ERROR(DecodeDatasetId(doc, where, &request.dataset_op));
    return request;
  }
  if (name == "batch") {
    request.op = ServiceRequest::Op::kBatch;
    const JsonValue& queries = doc["queries"];
    if (!queries.is_array()) {
      return FieldError(where, "queries", "missing or not an array");
    }
    const std::vector<JsonValue>& items = queries.array_items();
    if (items.empty()) {
      return FieldError(where, "queries", "must not be empty");
    }
    for (size_t i = 0; i < items.size(); ++i) {
      ServiceRequest::BatchEntry entry;
      const JsonValue& q = items[i];
      const std::string entry_where =
          where + ": queries[" + std::to_string(i) + "]";
      if (!q.is_object()) {
        entry.status =
            Status::InvalidArgument(entry_where + ": not an object");
      } else {
        entry.status = DecodeMineBody(q, entry_where, /*with_dataset=*/true,
                                      &entry.request);
      }
      request.batch.push_back(std::move(entry));
    }
    return request;
  }
  if (name == "cluster_info") {
    request.op = ServiceRequest::Op::kClusterInfo;
    const JsonValue& dataset = doc["dataset"];
    if (!dataset.is_null()) {
      if (!dataset.is_string() || dataset.string_value().empty()) {
        return FieldError(where, "dataset", "not a non-empty string");
      }
      request.cluster.path = dataset.string_value();
    }
    return request;
  }
  if (name == "cache_probe") {
    request.op = ServiceRequest::Op::kCacheProbe;
    const JsonValue& digest = doc["digest"];
    if (!digest.is_string() || digest.string_value().empty()) {
      return FieldError(where, "digest", "missing or not a string");
    }
    request.cluster.digest = digest.string_value();
    FPM_RETURN_IF_ERROR(DecodeMineBody(doc, where, /*with_dataset=*/false,
                                       &request.mine));
    return request;
  }
  if (name == "shard_query") {
    request.op = ServiceRequest::Op::kShardQuery;
    const JsonValue& mode = doc["mode"];
    if (!mode.is_string()) {
      return FieldError(where, "mode", "missing or not a string");
    }
    const std::string& mode_name = mode.string_value();
    if (mode_name == "execute") {
      request.cluster.shard_mode = ClusterOpRequest::ShardMode::kExecute;
    } else if (mode_name == "mine") {
      request.cluster.shard_mode = ClusterOpRequest::ShardMode::kMine;
    } else if (mode_name == "count") {
      request.cluster.shard_mode = ClusterOpRequest::ShardMode::kCount;
    } else {
      return FieldError(where, "mode",
                        "expected 'execute', 'mine' or 'count'");
    }
    FPM_RETURN_IF_ERROR(DecodeMineBody(doc, where, /*with_dataset=*/true,
                                       &request.mine));
    if (request.cluster.shard_mode != ClusterOpRequest::ShardMode::kExecute) {
      const JsonValue& partition = doc["partition"];
      if (!partition.is_object()) {
        return FieldError(where, "partition", "missing or not an object");
      }
      if (!DecodeInteger(partition["index"], uint32_t{0},
                         &request.cluster.partition_index)) {
        return FieldError(where, "partition.index",
                          "missing or not a number >= 0");
      }
      if (!DecodeInteger(partition["count"], uint32_t{1},
                         &request.cluster.partition_count)) {
        return FieldError(where, "partition.count",
                          "missing or not a number >= 1");
      }
      if (request.cluster.partition_index >=
          request.cluster.partition_count) {
        return FieldError(where, "partition.index",
                          "must be < partition.count");
      }
    }
    if (request.cluster.shard_mode == ClusterOpRequest::ShardMode::kCount) {
      FPM_RETURN_IF_ERROR(
          DecodeCandidates(doc, where, &request.cluster.candidates));
    }
    return request;
  }
  return FieldError("request", "op", "unknown op '" + name + "'");
}

std::string EncodeQueryResponse(const MineResponse& response) {
  return QueryResponseLine(response, /*hit=*/false, std::nullopt);
}

std::string EncodeQueryResponseWithId(uint64_t id,
                                      const MineResponse& response) {
  return QueryResponseLine(response, /*hit=*/false, id);
}

std::string EncodeHandleResponse(const DatasetHandle& handle) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("digest").String(handle.digest);
  w.Key("id").String(handle.id);
  w.Key("latest_version").Uint(handle.latest_version);
  w.Key("num_transactions").Uint(handle.database->num_transactions());
  w.Key("ok").Bool(true);
  if (!handle.parent_digest.empty()) {
    w.Key("parent_digest").String(handle.parent_digest);
  }
  w.Key("total_weight").Uint(handle.database->total_weight());
  w.Key("version").Uint(handle.version);
  w.EndObject();
  return out;
}

std::string EncodeDatasetInfoResponse(const DatasetInfo& info) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("id").String(info.id);
  w.Key("live_transactions").Uint(info.live_transactions);
  w.Key("ok").Bool(true);
  w.Key("path").String(info.path);
  w.Key("storage").String(info.storage);
  w.Key("versions").BeginArray();
  for (const DatasetInfo::Version& v : info.versions) {
    w.BeginObject();
    w.Key("appended_weight").Uint(v.appended_weight);
    w.Key("digest").String(v.digest);
    w.Key("expired_weight").Uint(v.expired_weight);
    w.Key("num_transactions").Uint(v.num_transactions);
    w.Key("version").Uint(v.number);
    w.EndObject();
  }
  w.EndArray();
  w.Key("window").BeginObject();
  w.Key("last_n").Uint(info.window.last_n);
  w.Key("last_seconds").Number(info.window.last_seconds);
  w.EndObject();
  w.EndObject();
  return out;
}

std::string EncodeStatsResponse(const ServiceStats& stats,
                                std::string_view cluster) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();

  const ResultCacheStats& cache = stats.cache;
  w.Key("cache").BeginObject();
  w.Key("cross_task_hits").Uint(cache.cross_task_hits);
  w.Key("dominated_hits").Uint(cache.dominated_hits);
  w.Key("evictions").Uint(cache.evictions);
  w.Key("hits").Uint(cache.hits);
  w.Key("insertions").Uint(cache.insertions);
  w.Key("misses").Uint(cache.misses);
  w.Key("resident_bytes").Uint(cache.resident_bytes);
  w.Key("resident_entries").Uint(cache.resident_entries);
  w.EndObject();

  if (!cluster.empty()) w.Key("cluster").Raw(cluster);
  w.Key("ok").Bool(true);

  const DatasetRegistryStats& registry = stats.registry;
  w.Key("registry").BeginObject();
  w.Key("appends").Uint(registry.appends);
  w.Key("datasets").BeginArray();
  for (const DatasetRegistryStats::Dataset& d : registry.datasets) {
    w.BeginObject();
    w.Key("bytes").Uint(d.bytes);
    if (!d.digest.empty()) w.Key("digest").String(d.digest);
    w.Key("id").String(d.id);
    w.Key("live_transactions").Uint(d.live_transactions);
    w.Key("mapped_bytes").Uint(d.mapped_bytes);
    w.Key("path").String(d.path);
    w.Key("pinned_versions").Uint(d.pinned_versions);
    w.Key("storage").String(d.storage);
    w.Key("versions").Uint(d.versions);
    w.EndObject();
  }
  w.EndArray();
  w.Key("evictions").Uint(registry.evictions);
  w.Key("hits").Uint(registry.hits);
  w.Key("loads").Uint(registry.loads);
  w.Key("mapped_bytes").Uint(registry.mapped_bytes);
  w.Key("resident_bytes").Uint(registry.resident_bytes);
  w.EndObject();

  const JobSchedulerStats& scheduler = stats.scheduler;
  w.Key("scheduler").BeginObject();
  w.Key("completed").Uint(scheduler.completed);
  w.Key("in_flight").BeginArray();
  for (const InFlightJob& job : scheduler.in_flight) {
    w.BeginObject();
    w.Key("age_seconds").Number(job.age_seconds);
    w.Key("query_id").Uint(job.query_id);
    w.EndObject();
  }
  w.EndArray();
  w.Key("queue_depth").Uint(scheduler.queue_depth);
  w.Key("rejected").Uint(scheduler.rejected);
  w.Key("running").Uint(scheduler.running);
  w.Key("submitted").Uint(scheduler.submitted);
  w.EndObject();

  w.Key("uptime_seconds").Number(stats.uptime_seconds);

  w.Key("watchdog").BeginObject();
  w.Key("flagged").Uint(stats.watchdog.flagged);
  w.Key("stuck_now").Uint(stats.watchdog.stuck_now);
  w.Key("sweeps").Uint(stats.watchdog.sweeps);
  w.EndObject();

  w.Key("windows").BeginArray();
  for (const ServiceWindowStats& window : stats.windows) {
    w.BeginObject();
    w.Key("count").Uint(window.count);
    w.Key("max_ms").Number(window.max_ms);
    w.Key("p50_ms").Number(window.p50_ms);
    w.Key("p99_ms").Number(window.p99_ms);
    w.Key("qps").Number(window.qps);
    w.Key("window_s").Uint(window.window_seconds);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return out;
}

std::string EncodeMetricsTextResponse(const std::string& text) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("ok").Bool(true).Key("text").String(text).EndObject();
  return out;
}

std::string EncodeError(const Status& status) {
  return ErrorLine(status, std::nullopt);
}

std::string EncodeErrorWithId(uint64_t id, const Status& status) {
  return ErrorLine(status, id);
}

std::string EncodeOk() {
  std::string out;
  JsonWriter(&out).BeginObject().Key("ok").Bool(true).EndObject();
  return out;
}

namespace {

// Reverse of StatusCodeToString, for rehydrating a peer's error
// envelope. Unknown names map to kInternal.
StatusCode ParseStatusCode(const std::string& name) {
  static const std::pair<const char*, StatusCode> kCodes[] = {
      {"OK", StatusCode::kOk},
      {"INVALID_ARGUMENT", StatusCode::kInvalidArgument},
      {"NOT_FOUND", StatusCode::kNotFound},
      {"ALREADY_EXISTS", StatusCode::kAlreadyExists},
      {"OUT_OF_RANGE", StatusCode::kOutOfRange},
      {"UNIMPLEMENTED", StatusCode::kUnimplemented},
      {"INTERNAL", StatusCode::kInternal},
      {"IO_ERROR", StatusCode::kIOError},
      {"RESOURCE_EXHAUSTED", StatusCode::kResourceExhausted},
      {"CANCELLED", StatusCode::kCancelled},
      {"DEADLINE_EXCEEDED", StatusCode::kDeadlineExceeded},
      {"UNAVAILABLE", StatusCode::kUnavailable},
      {"FAILED_PRECONDITION", StatusCode::kFailedPrecondition},
  };
  for (const auto& entry : kCodes) {
    if (name == entry.first) return entry.second;
  }
  return StatusCode::kInternal;
}

// Parses an "itemsets"/"candidates" array of {"items":[...],
// "support":N} objects.
Status DecodeItemsetEntries(const JsonValue& array, const std::string& what,
                            std::vector<CollectingSink::Entry>* out) {
  if (!array.is_array()) {
    return Status::InvalidArgument("peer response: '" + what +
                                   "' is not an array");
  }
  out->reserve(array.array_items().size());
  for (const JsonValue& row : array.array_items()) {
    const JsonValue& items = row["items"];
    Support support = 0;
    if (!row.is_object() || !items.is_array() ||
        !DecodeInteger(row["support"], Support{0}, &support)) {
      return Status::InvalidArgument("peer response: malformed '" + what +
                                     "' entry");
    }
    Itemset set;
    if (!DecodeItems(items.array_items(), &set)) {
      return Status::InvalidArgument("peer response: non-numeric item in '" +
                                     what + "'");
    }
    out->emplace_back(std::move(set), support);
  }
  return Status::OK();
}

// Checks the "ok" envelope of a peer response; {"ok":false,...} becomes
// the carried status.
Status CheckOkEnvelope(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("peer response is not a JSON object");
  }
  const JsonValue& ok = doc["ok"];
  if (!ok.is_bool()) {
    return Status::InvalidArgument("peer response: missing 'ok'");
  }
  if (ok.bool_value()) return Status::OK();
  const JsonValue& error = doc["error"];
  std::string code = "INTERNAL";
  std::string message = "peer reported an error without detail";
  if (error.is_object()) {
    if (error["code"].is_string()) code = error["code"].string_value();
    if (error["message"].is_string()) {
      message = error["message"].string_value();
    }
  }
  return Status(ParseStatusCode(code), message);
}

// Reads an optional count field of a peer reply: absent leaves `out`
// as it is; present, it must be an integer in [0, max of T].
template <typename T>
Status DecodePeerCount(const JsonValue& doc, const char* name, T* out) {
  const JsonValue& value = doc[name];
  if (value.is_null() || DecodeInteger(value, T{0}, out)) {
    return Status::OK();
  }
  return Status::InvalidArgument(std::string("peer response: '") + name +
                                 "' is not a number >= 0");
}

// Fills a MineResponse from a query response document (the envelope
// must already be ok).
Status ParseQueryResponseDoc(const JsonValue& doc, MineResponse* out) {
  const JsonValue& task = doc["task"];
  if (task.is_string()) {
    FPM_ASSIGN_OR_RETURN(out->task, ParseTask(task.string_value()));
  }
  FPM_RETURN_IF_ERROR(DecodePeerCount(doc, "num_results", &out->num_frequent));
  const JsonValue& cache = doc["cache"];
  if (cache.is_string()) {
    FPM_ASSIGN_OR_RETURN(out->cache, ParseCacheOutcome(cache.string_value()));
  }
  if (doc["digest"].is_string()) {
    out->dataset_digest = doc["digest"].string_value();
  }
  if (doc["queue_ms"].is_number()) {
    out->queue_seconds = doc["queue_ms"].number_value() / 1000.0;
  }
  if (doc["mine_ms"].is_number()) {
    out->mine_seconds = doc["mine_ms"].number_value() / 1000.0;
  }
  FPM_RETURN_IF_ERROR(DecodePeerCount(doc, "query_id", &out->query_id));
  if (doc["trace_id"].is_string()) {
    out->trace_id = doc["trace_id"].string_value();
  }
  if (doc["peer"].is_string()) {
    out->served_by = doc["peer"].string_value();
  }
  FPM_RETURN_IF_ERROR(DecodePeerCount(doc, "shards", &out->shard_count));
  const JsonValue& itemsets = doc["itemsets"];
  if (!itemsets.is_null()) {
    FPM_RETURN_IF_ERROR(
        DecodeItemsetEntries(itemsets, "itemsets", &out->itemsets));
  }
  const JsonValue& rules = doc["rules"];
  if (!rules.is_null()) {
    if (!rules.is_array()) {
      return Status::InvalidArgument("peer response: 'rules' is not an array");
    }
    out->rules.reserve(rules.array_items().size());
    for (const JsonValue& row : rules.array_items()) {
      const JsonValue& antecedent = row["antecedent"];
      const JsonValue& consequent = row["consequent"];
      const JsonValue& confidence = row["confidence"];
      const JsonValue& lift = row["lift"];
      AssociationRule rule;
      if (!row.is_object() || !antecedent.is_array() ||
          !consequent.is_array() ||
          !DecodeInteger(row["support"], Support{0},
                         &rule.itemset_support) ||
          !confidence.is_number() || !lift.is_number()) {
        return Status::InvalidArgument(
            "peer response: malformed 'rules' entry");
      }
      if (!DecodeItems(antecedent.array_items(), &rule.antecedent) ||
          !DecodeItems(consequent.array_items(), &rule.consequent)) {
        return Status::InvalidArgument(
            "peer response: non-numeric item in 'rules'");
      }
      rule.confidence = confidence.number_value();
      rule.lift = lift.number_value();
      out->rules.push_back(std::move(rule));
    }
  }
  return Status::OK();
}

}  // namespace

std::string EncodeCacheProbeRequest(const std::string& digest,
                                    const MineRequest& request) {
  PeerRequestFields fields;
  fields.op = "cache_probe";
  fields.digest = &digest;
  return PeerRequestLine(request, fields);
}

std::string EncodeShardQueryRequest(const MineRequest& request,
                                    ClusterOpRequest::ShardMode mode,
                                    uint32_t partition_index,
                                    uint32_t partition_count,
                                    const std::vector<Itemset>& candidates) {
  PeerRequestFields fields;
  fields.op = "shard_query";
  switch (mode) {
    case ClusterOpRequest::ShardMode::kExecute:
      fields.mode = "execute";
      break;
    case ClusterOpRequest::ShardMode::kMine:
      fields.mode = "mine";
      break;
    case ClusterOpRequest::ShardMode::kCount:
      fields.mode = "count";
      fields.candidates = &candidates;
      break;
  }
  fields.partitioned = mode != ClusterOpRequest::ShardMode::kExecute;
  fields.partition_index = partition_index;
  fields.partition_count = partition_count;
  return PeerRequestLine(request, fields);
}

std::string EncodeCacheProbeResponse(bool hit, const MineResponse& response) {
  if (hit) return QueryResponseLine(response, /*hit=*/true, std::nullopt);
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("hit").Bool(false).Key("ok").Bool(true).EndObject();
  return out;
}

std::string EncodeShardMineResponse(
    const std::vector<CollectingSink::Entry>& entries) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("candidates");
  WriteItemsets(w, entries);
  w.Key("ok").Bool(true).Key("phase").String("mine").EndObject();
  return out;
}

std::string EncodeShardCountResponse(const std::vector<Support>& counts) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("counts").BeginArray();
  for (Support count : counts) w.Uint(count);
  w.EndArray();
  w.Key("ok").Bool(true).Key("phase").String("count").EndObject();
  return out;
}

Result<MineResponse> DecodeQueryResponse(const std::string& line) {
  FPM_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  FPM_RETURN_IF_ERROR(CheckOkEnvelope(doc));
  MineResponse response;
  FPM_RETURN_IF_ERROR(ParseQueryResponseDoc(doc, &response));
  return response;
}

Result<CacheProbeReply> DecodeCacheProbeResponse(const std::string& line) {
  FPM_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  FPM_RETURN_IF_ERROR(CheckOkEnvelope(doc));
  const JsonValue& hit = doc["hit"];
  if (!hit.is_bool()) {
    return Status::InvalidArgument("peer response: missing 'hit'");
  }
  CacheProbeReply reply;
  reply.hit = hit.bool_value();
  if (reply.hit) {
    FPM_RETURN_IF_ERROR(ParseQueryResponseDoc(doc, &reply.response));
  }
  return reply;
}

Result<std::vector<CollectingSink::Entry>> DecodeShardMineResponse(
    const std::string& line) {
  FPM_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  FPM_RETURN_IF_ERROR(CheckOkEnvelope(doc));
  std::vector<CollectingSink::Entry> entries;
  FPM_RETURN_IF_ERROR(
      DecodeItemsetEntries(doc["candidates"], "candidates", &entries));
  return entries;
}

Result<std::vector<Support>> DecodeShardCountResponse(
    const std::string& line) {
  FPM_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  FPM_RETURN_IF_ERROR(CheckOkEnvelope(doc));
  const JsonValue& counts = doc["counts"];
  if (!counts.is_array()) {
    return Status::InvalidArgument("peer response: 'counts' is not an array");
  }
  std::vector<Support> out;
  out.reserve(counts.array_items().size());
  for (const JsonValue& count : counts.array_items()) {
    Support support = 0;
    if (!DecodeInteger(count, Support{0}, &support)) {
      return Status::InvalidArgument(
          "peer response: 'counts' entries must be numbers >= 0");
    }
    out.push_back(support);
  }
  return out;
}

}  // namespace fpm
