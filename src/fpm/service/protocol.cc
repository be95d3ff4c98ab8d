#include "fpm/service/protocol.h"

#include <cmath>
#include <limits>
#include <utility>

#include "fpm/common/cancel.h"

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

JsonValue EncodeItemsets(const std::vector<CollectingSink::Entry>& itemsets) {
  JsonValue array = JsonValue::Array();
  for (const CollectingSink::Entry& e : itemsets) {
    JsonValue items = JsonValue::Array();
    for (Item it : e.first) items.Append(JsonValue::Int(it));
    JsonValue entry = JsonValue::Object();
    entry.Set("items", std::move(items));
    entry.Set("support", JsonValue::Int(e.second));
    array.Append(std::move(entry));
  }
  return array;
}

JsonValue EncodeItemArray(const Itemset& set) {
  JsonValue array = JsonValue::Array();
  for (Item it : set) array.Append(JsonValue::Int(it));
  return array;
}

JsonValue BuildQueryResponse(const MineResponse& response) {
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(true));
  doc.Set("task", JsonValue::Str(TaskName(response.task)));
  doc.Set("num_results",
          JsonValue::Int(static_cast<int64_t>(response.num_frequent)));
  doc.Set("cache", JsonValue::Str(CacheOutcomeName(response.cache)));
  doc.Set("digest", JsonValue::Str(response.dataset_digest));
  doc.Set("queue_ms", JsonValue::Number(response.queue_seconds * 1000.0));
  doc.Set("mine_ms", JsonValue::Number(response.mine_seconds * 1000.0));
  doc.Set("query_id",
          JsonValue::Int(static_cast<int64_t>(response.query_id)));
  if (!response.trace_id.empty()) {
    doc.Set("trace_id", JsonValue::Str(response.trace_id));
  }
  if (!response.served_by.empty()) {
    doc.Set("peer", JsonValue::Str(response.served_by));
  }
  if (response.shard_count > 0) {
    doc.Set("shards",
            JsonValue::Int(static_cast<int64_t>(response.shard_count)));
  }
  if (!response.itemsets.empty()) {
    doc.Set("itemsets", EncodeItemsets(response.itemsets));
  }
  if (!response.rules.empty()) {
    JsonValue rules = JsonValue::Array();
    for (const AssociationRule& r : response.rules) {
      JsonValue rule = JsonValue::Object();
      rule.Set("antecedent", EncodeItemArray(r.antecedent));
      rule.Set("consequent", EncodeItemArray(r.consequent));
      rule.Set("support", JsonValue::Int(r.itemset_support));
      rule.Set("confidence", JsonValue::Number(r.confidence));
      rule.Set("lift", JsonValue::Number(r.lift));
      rules.Append(std::move(rule));
    }
    doc.Set("rules", std::move(rules));
  }
  return doc;
}

JsonValue BuildError(const Status& status) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::Str(StatusCodeToString(status.code())));
  error.Set("message", JsonValue::Str(status.message()));
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(false));
  doc.Set("error", std::move(error));
  return doc;
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
  return BuildQueryResponse(response).Dump();
}

std::string EncodeQueryResponseWithId(uint64_t id,
                                      const MineResponse& response) {
  JsonValue doc = BuildQueryResponse(response);
  doc.Set("id", JsonValue::Int(static_cast<int64_t>(id)));
  return doc.Dump();
}

std::string EncodeHandleResponse(const DatasetHandle& handle) {
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(true));
  doc.Set("id", JsonValue::Str(handle.id));
  doc.Set("version", JsonValue::Int(static_cast<int64_t>(handle.version)));
  doc.Set("latest_version",
          JsonValue::Int(static_cast<int64_t>(handle.latest_version)));
  doc.Set("digest", JsonValue::Str(handle.digest));
  if (!handle.parent_digest.empty()) {
    doc.Set("parent_digest", JsonValue::Str(handle.parent_digest));
  }
  doc.Set("num_transactions",
          JsonValue::Int(static_cast<int64_t>(
              handle.database->num_transactions())));
  doc.Set("total_weight",
          JsonValue::Int(static_cast<int64_t>(
              handle.database->total_weight())));
  return doc.Dump();
}

std::string EncodeDatasetInfoResponse(const DatasetInfo& info) {
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(true));
  doc.Set("id", JsonValue::Str(info.id));
  doc.Set("path", JsonValue::Str(info.path));
  doc.Set("storage", JsonValue::Str(info.storage));
  doc.Set("live_transactions",
          JsonValue::Int(static_cast<int64_t>(info.live_transactions)));
  JsonValue window = JsonValue::Object();
  window.Set("last_n",
             JsonValue::Int(static_cast<int64_t>(info.window.last_n)));
  window.Set("last_seconds", JsonValue::Number(info.window.last_seconds));
  doc.Set("window", std::move(window));
  JsonValue versions = JsonValue::Array();
  for (const DatasetInfo::Version& v : info.versions) {
    JsonValue out = JsonValue::Object();
    out.Set("version", JsonValue::Int(static_cast<int64_t>(v.number)));
    out.Set("digest", JsonValue::Str(v.digest));
    out.Set("num_transactions",
            JsonValue::Int(static_cast<int64_t>(v.num_transactions)));
    out.Set("appended_weight",
            JsonValue::Int(static_cast<int64_t>(v.appended_weight)));
    out.Set("expired_weight",
            JsonValue::Int(static_cast<int64_t>(v.expired_weight)));
    versions.Append(std::move(out));
  }
  doc.Set("versions", std::move(versions));
  return doc.Dump();
}

std::string EncodeStatsResponse(const ServiceStats& stats) {
  return EncodeStatsResponse(stats, nullptr);
}

std::string EncodeStatsResponse(const ServiceStats& stats,
                                const JsonValue* cluster) {
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(true));
  doc.Set("uptime_seconds", JsonValue::Number(stats.uptime_seconds));

  JsonValue registry = JsonValue::Object();
  registry.Set("loads",
               JsonValue::Int(static_cast<int64_t>(stats.registry.loads)));
  registry.Set("hits",
               JsonValue::Int(static_cast<int64_t>(stats.registry.hits)));
  registry.Set("appends",
               JsonValue::Int(static_cast<int64_t>(stats.registry.appends)));
  registry.Set("evictions",
               JsonValue::Int(static_cast<int64_t>(stats.registry.evictions)));
  registry.Set("resident_bytes",
               JsonValue::Int(
                   static_cast<int64_t>(stats.registry.resident_bytes)));
  registry.Set("mapped_bytes",
               JsonValue::Int(
                   static_cast<int64_t>(stats.registry.mapped_bytes)));
  JsonValue datasets = JsonValue::Array();
  for (const DatasetRegistryStats::Dataset& d : stats.registry.datasets) {
    JsonValue row = JsonValue::Object();
    row.Set("id", JsonValue::Str(d.id));
    row.Set("path", JsonValue::Str(d.path));
    row.Set("storage", JsonValue::Str(d.storage));
    row.Set("versions", JsonValue::Int(static_cast<int64_t>(d.versions)));
    row.Set("live_transactions",
            JsonValue::Int(static_cast<int64_t>(d.live_transactions)));
    row.Set("bytes", JsonValue::Int(static_cast<int64_t>(d.bytes)));
    row.Set("mapped_bytes",
            JsonValue::Int(static_cast<int64_t>(d.mapped_bytes)));
    row.Set("pinned_versions",
            JsonValue::Int(static_cast<int64_t>(d.pinned_versions)));
    if (!d.digest.empty()) {
      row.Set("digest", JsonValue::Str(d.digest));
    }
    datasets.Append(std::move(row));
  }
  registry.Set("datasets", std::move(datasets));
  doc.Set("registry", std::move(registry));

  JsonValue cache = JsonValue::Object();
  cache.Set("hits", JsonValue::Int(static_cast<int64_t>(stats.cache.hits)));
  cache.Set("dominated_hits",
            JsonValue::Int(static_cast<int64_t>(stats.cache.dominated_hits)));
  cache.Set("cross_task_hits",
            JsonValue::Int(
                static_cast<int64_t>(stats.cache.cross_task_hits)));
  cache.Set("misses",
            JsonValue::Int(static_cast<int64_t>(stats.cache.misses)));
  cache.Set("insertions",
            JsonValue::Int(static_cast<int64_t>(stats.cache.insertions)));
  cache.Set("evictions",
            JsonValue::Int(static_cast<int64_t>(stats.cache.evictions)));
  cache.Set("resident_bytes",
            JsonValue::Int(static_cast<int64_t>(stats.cache.resident_bytes)));
  cache.Set("resident_entries",
            JsonValue::Int(
                static_cast<int64_t>(stats.cache.resident_entries)));
  doc.Set("cache", std::move(cache));

  JsonValue scheduler = JsonValue::Object();
  scheduler.Set("submitted",
                JsonValue::Int(
                    static_cast<int64_t>(stats.scheduler.submitted)));
  scheduler.Set("rejected",
                JsonValue::Int(static_cast<int64_t>(stats.scheduler.rejected)));
  scheduler.Set("completed",
                JsonValue::Int(
                    static_cast<int64_t>(stats.scheduler.completed)));
  scheduler.Set("queue_depth",
                JsonValue::Int(
                    static_cast<int64_t>(stats.scheduler.queue_depth)));
  scheduler.Set("running",
                JsonValue::Int(static_cast<int64_t>(stats.scheduler.running)));
  JsonValue in_flight = JsonValue::Array();
  for (const InFlightJob& job : stats.scheduler.in_flight) {
    JsonValue row = JsonValue::Object();
    row.Set("query_id", JsonValue::Int(static_cast<int64_t>(job.query_id)));
    row.Set("age_seconds", JsonValue::Number(job.age_seconds));
    in_flight.Append(std::move(row));
  }
  scheduler.Set("in_flight", std::move(in_flight));
  doc.Set("scheduler", std::move(scheduler));

  JsonValue windows = JsonValue::Array();
  for (const ServiceWindowStats& w : stats.windows) {
    JsonValue row = JsonValue::Object();
    row.Set("window_s", JsonValue::Int(static_cast<int64_t>(w.window_seconds)));
    row.Set("count", JsonValue::Int(static_cast<int64_t>(w.count)));
    row.Set("qps", JsonValue::Number(w.qps));
    row.Set("p50_ms", JsonValue::Number(w.p50_ms));
    row.Set("p99_ms", JsonValue::Number(w.p99_ms));
    row.Set("max_ms", JsonValue::Number(w.max_ms));
    windows.Append(std::move(row));
  }
  doc.Set("windows", std::move(windows));

  JsonValue watchdog = JsonValue::Object();
  watchdog.Set("sweeps",
               JsonValue::Int(static_cast<int64_t>(stats.watchdog.sweeps)));
  watchdog.Set("flagged",
               JsonValue::Int(static_cast<int64_t>(stats.watchdog.flagged)));
  watchdog.Set("stuck_now",
               JsonValue::Int(static_cast<int64_t>(stats.watchdog.stuck_now)));
  doc.Set("watchdog", std::move(watchdog));
  if (cluster != nullptr) {
    doc.Set("cluster", *cluster);
  }
  return doc.Dump();
}

std::string EncodeMetricsTextResponse(const std::string& text) {
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(true));
  doc.Set("text", JsonValue::Str(text));
  return doc.Dump();
}

std::string EncodeError(const Status& status) {
  return BuildError(status).Dump();
}

std::string EncodeErrorWithId(uint64_t id, const Status& status) {
  JsonValue doc = BuildError(status);
  doc.Set("id", JsonValue::Int(static_cast<int64_t>(id)));
  return doc.Dump();
}

std::string EncodeOk() {
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(true));
  return doc.Dump();
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

// The shared query-body fields of an outbound cache_probe/shard_query
// request, mirroring what DecodeMineBody accepts.
void EncodeMineBodyFields(const MineRequest& request, bool with_dataset,
                          JsonValue* doc) {
  if (with_dataset) {
    if (!request.dataset_id.empty()) {
      doc->Set("id", JsonValue::Str(request.dataset_id));
      if (request.dataset_version != 0) {
        doc->Set("version",
                 JsonValue::Int(
                     static_cast<int64_t>(request.dataset_version)));
      }
    } else {
      doc->Set("dataset", JsonValue::Str(request.dataset_path));
    }
  }
  doc->Set("min_support",
           JsonValue::Int(static_cast<int64_t>(request.query.min_support)));
  doc->Set("task", JsonValue::Str(TaskName(request.query.task)));
  if (request.query.task == MiningTask::kTopK) {
    doc->Set("k", JsonValue::Int(static_cast<int64_t>(request.query.k)));
  }
  if (request.query.task == MiningTask::kRules) {
    doc->Set("min_confidence",
             JsonValue::Number(request.query.min_confidence));
    doc->Set("min_lift", JsonValue::Number(request.query.min_lift));
    doc->Set("max_consequent",
             JsonValue::Int(
                 static_cast<int64_t>(request.query.max_consequent)));
  }
  doc->Set("algorithm", JsonValue::Str(AlgorithmName(request.algorithm)));
  doc->Set("patterns",
           JsonValue::Str(request.patterns.bits() == PatternSet::All().bits()
                              ? "all"
                              : "none"));
  if (request.priority != 0) {
    doc->Set("priority", JsonValue::Int(request.priority));
  }
  if (request.timeout_seconds > 0.0) {
    doc->Set("timeout_s", JsonValue::Number(request.timeout_seconds));
  }
  if (request.count_only) {
    doc->Set("count_only", JsonValue::Bool(true));
  }
  if (!request.trace_id.empty()) {
    doc->Set("trace_id", JsonValue::Str(request.trace_id));
  }
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
  JsonValue doc = JsonValue::Object();
  doc.Set("op", JsonValue::Str("cache_probe"));
  doc.Set("digest", JsonValue::Str(digest));
  EncodeMineBodyFields(request, /*with_dataset=*/false, &doc);
  return doc.Dump();
}

std::string EncodeShardQueryRequest(const MineRequest& request,
                                    ClusterOpRequest::ShardMode mode,
                                    uint32_t partition_index,
                                    uint32_t partition_count,
                                    const std::vector<Itemset>& candidates) {
  JsonValue doc = JsonValue::Object();
  doc.Set("op", JsonValue::Str("shard_query"));
  switch (mode) {
    case ClusterOpRequest::ShardMode::kExecute:
      doc.Set("mode", JsonValue::Str("execute"));
      break;
    case ClusterOpRequest::ShardMode::kMine:
      doc.Set("mode", JsonValue::Str("mine"));
      break;
    case ClusterOpRequest::ShardMode::kCount:
      doc.Set("mode", JsonValue::Str("count"));
      break;
  }
  EncodeMineBodyFields(request, /*with_dataset=*/true, &doc);
  if (mode != ClusterOpRequest::ShardMode::kExecute) {
    JsonValue partition = JsonValue::Object();
    partition.Set("index",
                  JsonValue::Int(static_cast<int64_t>(partition_index)));
    partition.Set("count",
                  JsonValue::Int(static_cast<int64_t>(partition_count)));
    doc.Set("partition", std::move(partition));
  }
  if (mode == ClusterOpRequest::ShardMode::kCount) {
    JsonValue array = JsonValue::Array();
    for (const Itemset& set : candidates) {
      array.Append(EncodeItemArray(set));
    }
    doc.Set("candidates", std::move(array));
  }
  return doc.Dump();
}

std::string EncodeCacheProbeResponse(bool hit, const MineResponse& response) {
  if (!hit) {
    JsonValue doc = JsonValue::Object();
    doc.Set("ok", JsonValue::Bool(true));
    doc.Set("hit", JsonValue::Bool(false));
    return doc.Dump();
  }
  JsonValue doc = BuildQueryResponse(response);
  doc.Set("hit", JsonValue::Bool(true));
  return doc.Dump();
}

std::string EncodeShardMineResponse(
    const std::vector<CollectingSink::Entry>& entries) {
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(true));
  doc.Set("phase", JsonValue::Str("mine"));
  doc.Set("candidates", EncodeItemsets(entries));
  return doc.Dump();
}

std::string EncodeShardCountResponse(const std::vector<Support>& counts) {
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(true));
  doc.Set("phase", JsonValue::Str("count"));
  JsonValue array = JsonValue::Array();
  for (Support count : counts) {
    array.Append(JsonValue::Int(static_cast<int64_t>(count)));
  }
  doc.Set("counts", std::move(array));
  return doc.Dump();
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
