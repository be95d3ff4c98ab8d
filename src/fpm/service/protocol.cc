#include "fpm/service/protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>

#include "fpm/common/cancel.h"
#include "fpm/common/json_writer.h"
#include "fpm/common/logging.h"
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

// The number of decimal digits in `value`.
size_t DecimalDigits(uint32_t value) {
  size_t digits = 1;
  for (; value >= 10; value /= 10) ++digits;
  return digits;
}

// Room QueryResponseLine leaves after the itemsets array for the members
// that follow it (timings, counts, "ok", "task"), so that appending them
// does not reallocate the line and copy the array once more. A long
// trace id may still grow it.
constexpr size_t kMembersAfterItemsets = 256;

// Appends [{"items":[...],"support":N},...], in the entries' order and
// exactly as JsonWriter would write it (tests/testing/ keeps that form
// as the oracle). This array is nearly all of a large answer, so it is
// written past the writer: one pass adds up its length, and after one
// resize a second writes it through a pointer, with no per-value call
// and no growth by doubling.
void WriteItemsets(std::string* out,
                   const std::vector<CollectingSink::Entry>& itemsets) {
  static constexpr std::string_view kItems = "{\"items\":[";
  static constexpr std::string_view kSupport = "],\"support\":";
  size_t length = 2 + (itemsets.empty() ? 0 : itemsets.size() - 1);
  for (const auto& [items, support] : itemsets) {
    length += kItems.size() + kSupport.size() + DecimalDigits(support) + 1;
    if (!items.empty()) length += items.size() - 1;
    for (Item item : items) length += DecimalDigits(item);
  }
  const size_t start = out->size();
  out->reserve(start + length + kMembersAfterItemsets);
  out->resize(start + length);
  char* p = out->data() + start;
  char* const end = out->data() + out->size();
  *p++ = '[';
  for (size_t i = 0; i < itemsets.size(); ++i) {
    if (i != 0) *p++ = ',';
    std::memcpy(p, kItems.data(), kItems.size());
    p += kItems.size();
    const Itemset& items = itemsets[i].first;
    for (size_t j = 0; j < items.size(); ++j) {
      if (j != 0) *p++ = ',';
      p = std::to_chars(p, end, items[j]).ptr;
    }
    std::memcpy(p, kSupport.data(), kSupport.size());
    p += kSupport.size();
    p = std::to_chars(p, end, itemsets[i].second).ptr;
    *p++ = '}';
  }
  *p++ = ']';
  FPM_CHECK(p == end) << "itemsets array missed its computed length";
}

// A query response line. `hit` adds a cache_probe hit's "hit":true and
// `id` a batch line's entry index, each in its sorted slot.
std::string QueryResponseLine(const MineResponse& response, bool hit,
                              std::optional<uint64_t> id) {
  const CachedResult* listing = response.listing.get();
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("cache").String(CacheOutcomeName(response.cache));
  w.Key("digest").String(response.dataset_digest);
  if (hit) w.Key("hit").Bool(true);
  if (id.has_value()) w.Key("id").Uint(*id);
  if (listing != nullptr && !listing->itemsets.empty()) {
    w.Key("itemsets");
    WriteItemsets(&out, listing->itemsets);
    // The writer still stands after the key, where the next call writes
    // the value, so it places no comma before "mine_ms": this one does.
    out.push_back(',');
  }
  w.Key("mine_ms").Number(response.mine_seconds * 1000.0);
  w.Key("num_results").Uint(response.num_frequent);
  w.Key("ok").Bool(true);
  w.Key("query_id").Uint(response.query_id);
  w.Key("queue_ms").Number(response.queue_seconds * 1000.0);
  if (listing != nullptr && !listing->rules.empty()) {
    w.Key("rules").BeginArray();
    for (const AssociationRule& r : listing->rules) {
      w.BeginObject().Key("antecedent");
      WriteItemArray(w, r.antecedent);
      w.Key("confidence").Number(r.confidence).Key("consequent");
      WriteItemArray(w, r.consequent);
      w.Key("lift").Number(r.lift);
      w.Key("support").Uint(r.itemset_support).EndObject();
    }
    w.EndArray();
  }
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
    if (mode.string_value() != "execute") {
      return FieldError(where, "mode", "expected 'execute'");
    }
    FPM_RETURN_IF_ERROR(DecodeMineBody(doc, where, /*with_dataset=*/true,
                                       &request.mine));
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

  w.Key("server").BeginObject();
  w.Key("refused_connections").Uint(stats.refused_connections);
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

// The code StatusCodeToString names `name`, for rehydrating a peer's
// error envelope. "OK" and unknown names read as kInternal, so an error
// envelope never reads as success.
StatusCode ParseStatusCode(std::string_view name) {
  for (int c = 1; c <= static_cast<int>(StatusCode::kFailedPrecondition);
       ++c) {
    const StatusCode code = static_cast<StatusCode>(c);
    if (name == StatusCodeToString(code)) return code;
  }
  return StatusCode::kInternal;
}

Status PeerError(std::string_view what) {
  return Status::Internal("peer response: " + std::string(what));
}

// Reads text in exactly the form JsonWriter writes it, in one pass and
// without building a tree. Each method reads one token and returns
// false when the bytes there are anything else.
class CanonicalReader {
 public:
  explicit CanonicalReader(std::string_view text) : text_(text) {}

  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == text_.size(); }

  // The bytes read since position `start`.
  std::string_view Since(size_t start) const {
    return text_.substr(start, pos_ - start);
  }

  bool Byte(char c) {
    if (pos_ == text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Literal(std::string_view literal) {
    const size_t n = literal.size();
    if (text_.size() - pos_ < n ||
        std::memcmp(text_.data() + pos_, literal.data(), n) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  // A string as AppendJsonString writes it: no byte below 0x20, and only
  // its escapes. `*raw` gets the bytes between the quotes as written.
  bool String(std::string_view* raw) {
    if (!Byte('"')) return false;
    const size_t start = pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        *raw = Since(start);
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;
      if (c != '\\') {
        ++pos_;
      } else if (!Escape()) {
        return false;
      }
    }
    return false;
  }

  // The same string, decoded: `*decoded` gets the bytes the writer
  // escaped.
  bool String(std::string* decoded) {
    std::string_view raw;
    if (!String(&raw)) return false;
    decoded->clear();
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '\\') {
        decoded->push_back(raw[i]);
        continue;
      }
      const char e = raw[++i];
      if (e == 'u') {  // \u00xx, xx below 0x20
        decoded->push_back(static_cast<char>((raw[i + 3] - '0') * 16 +
                                             kHex.find(raw[i + 4])));
        i += 4;
      } else {  // \" \\ \n \r \t
        decoded->push_back(e == 'n'   ? '\n'
                           : e == 'r' ? '\r'
                           : e == 't' ? '\t'
                                      : e);
      }
    }
    return true;
  }

  // Plain decimal digits, without sign or leading zero, at most `max`:
  // their value, or nullopt. A leading 0 is the whole number. The value
  // is accumulated as the digits are scanned, so each is read once.
  std::optional<uint64_t> Uint(uint64_t max) {
    if (Byte('0')) return 0;
    const size_t start = pos_;
    uint64_t value = 0;
    for (; pos_ < text_.size(); ++pos_) {
      const char c = text_[pos_];
      if (c < '0' || c > '9') break;
      const uint64_t digit = static_cast<uint64_t>(c - '0');
      if (value > max / 10 || digit > max - value * 10) return std::nullopt;
      value = value * 10 + digit;
    }
    if (pos_ == start) return std::nullopt;
    return value;
  }

  // A JSON number that reads as a finite double.
  bool Number() {
    const size_t start = pos_;
    Byte('-');
    if (!Byte('0') && !Digits()) return false;
    const size_t integral_end = pos_;
    if (Byte('.') && !Digits()) return false;
    if (Byte('e') || Byte('E')) {
      if (!Byte('+')) Byte('-');
      if (!Digits()) return false;
    }
    // An integer of at most 308 digits is below DBL_MAX: finite without
    // being converted.
    if (pos_ == integral_end && pos_ - start <= 308) return true;
    double value;
    const char* end = text_.data() + pos_;
    const auto parsed = std::from_chars(text_.data() + start, end, value);
    return parsed.ec == std::errc() && parsed.ptr == end;
  }

  // An array of item ids, each below kInvalidItem.
  bool Items() {
    if (!Byte('[')) return false;
    if (Byte(']')) return true;
    do {
      if (!Uint(kInvalidItem - 1)) return false;
    } while (Byte(','));
    return Byte(']');
  }

  // Any value in the writer's form, without keeping it. `depth` is its
  // nesting depth (a top-level member's value is at 1); like ParseJson,
  // it refuses a value nested deeper than kMaxJsonDepth, so the
  // recursion stays shallow whatever the bytes.
  bool Skip(int depth) {
    if (depth > kMaxJsonDepth || AtEnd()) return false;
    const char open = text_[pos_];
    if (open == '{' || open == '[') {
      const char close = open == '{' ? '}' : ']';
      ++pos_;
      if (Byte(close)) return true;
      do {
        std::string_view key;
        if (open == '{' && (!String(&key) || !Byte(':'))) return false;
        if (!Skip(depth + 1)) return false;
      } while (Byte(','));
      return Byte(close);
    }
    std::string_view text;
    if (open == '"') return String(&text);
    if (open == 't') return Literal("true");
    if (open == 'f') return Literal("false");
    return open == 'n' ? Literal("null") : Number();
  }

 private:
  static constexpr std::string_view kHex = "0123456789abcdef";

  // One or more digits.
  bool Digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  // \" \\ \n \r \t, or \u00xx (lowercase hex) for another byte below 0x20.
  bool Escape() {
    const std::string_view rest = text_.substr(pos_);
    if (rest.size() >= 2 && std::string_view("\"\\nrt").find(rest[1]) !=
                                std::string_view::npos) {
      pos_ += 2;
      return true;
    }
    if (rest.size() < 6 || rest.substr(0, 4) != "\\u00" ||
        (rest[4] != '0' && rest[4] != '1') ||
        kHex.find(rest[5]) == std::string_view::npos) {
      return false;
    }
    const size_t byte = (rest[4] == '1' ? 16 : 0) + kHex.find(rest[5]);
    if (byte == '\n' || byte == '\r' || byte == '\t') return false;
    pos_ += 6;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Status NotCanonical(const CanonicalReader& in) {
  return PeerError("not writer-canonical JSON at offset " +
                   std::to_string(in.pos()));
}

// Reads `line` as one object in the writer's form: no whitespace, keys
// strictly ascending (so no member can be read twice), nothing after
// the closing brace. `member(key, in)` reads each member's value; `key`
// is the key as written.
template <typename Member>
Status ReadObject(std::string_view line, Member member) {
  CanonicalReader in(line);
  if (!in.Byte('{')) return NotCanonical(in);
  std::optional<std::string_view> last;
  do {
    std::string_view key;
    if (!in.String(&key) || !in.Byte(':')) return NotCanonical(in);
    if (last.has_value() && key <= *last) {
      return PeerError("key '" + std::string(key) +
                       "' repeated or out of order");
    }
    last = key;
    FPM_RETURN_IF_ERROR(member(key, in));
  } while (in.Byte(','));
  if (!in.Byte('}') || !in.AtEnd()) return NotCanonical(in);
  return Status::OK();
}

// Reads the top-level "ok" of a line the writer writes, skipping every
// member but "ok" and "error". `*carried` gets the status an
// {"ok":false} envelope carries: its error's code and message, or
// INTERNAL "peer reported an error without detail" when it has none.
// It stays OK for "ok":true and for a line without "ok".
Status ReadEnvelope(std::string_view line, Status* carried) {
  std::optional<bool> ok;
  std::optional<Status> error;
  FPM_RETURN_IF_ERROR(ReadObject(
      line, [&](std::string_view key, CanonicalReader& in) -> Status {
        if (key == "ok") {
          ok = in.Literal("true");
          if (*ok || in.Literal("false")) return Status::OK();
          return PeerError("'ok' is not a bool");
        }
        if (key == "error") {
          std::string code;
          std::string message;
          if (!in.Literal("{\"code\":") || !in.String(&code) ||
              !in.Literal(",\"message\":") || !in.String(&message) ||
              !in.Byte('}')) {
            return PeerError("malformed 'error'");
          }
          error = Status(ParseStatusCode(code), std::move(message));
          return Status::OK();
        }
        return in.Skip(1) ? Status::OK() : NotCanonical(in);
      }));
  if (ok.has_value() && !*ok) {
    *carried = error.value_or(
        Status::Internal("peer reported an error without detail"));
    return Status::OK();
  }
  if (error.has_value()) return PeerError("'error' without \"ok\":false");
  *carried = Status::OK();
  return Status::OK();
}

// What a reply reader returns for a line it refused with `refused`: the
// carried status when the line is an {"ok":false} envelope, `refused`
// for any other line.
Status CarriedOr(std::string_view line, Status refused) {
  Status carried;
  if (ReadEnvelope(line, &carried).ok() && !carried.ok()) return carried;
  return refused;
}

// The members of an owner's query reply, in the writer's ascending key
// order. Only the relay writes "peer", so an owner's reply that carries
// it is refused as an unknown key.
enum ReplyKey {
  kCache,
  kDigest,
  kHit,
  kItemsets,
  kMineMs,
  kNumResults,
  kOk,
  kQueryId,
  kQueueMs,
  kRules,
  kTask,
  kTraceId,
};
constexpr int kNumReplyKeys = kTraceId + 1;

constexpr std::string_view kReplyKeyNames[kNumReplyKeys] = {
    "cache",    "digest",   "hit",   "itemsets", "mine_ms", "num_results",
    "ok",       "query_id", "queue_ms", "rules", "task",    "trace_id",
};
static_assert(std::is_sorted(std::begin(kReplyKeyNames),
                             std::end(kReplyKeyNames)));

// The keys QueryResponseLine writes on every answer; a cache_probe hit
// also carries "hit".
constexpr ReplyKey kAlwaysWritten[] = {kCache,  kDigest,  kMineMs, kNumResults,
                                       kOk,     kQueryId, kQueueMs, kTask};

// Where each member's value sits in the reply; empty when absent.
using ReplyValues = std::array<std::string_view, kNumReplyKeys>;

// What EncodeCacheProbeResponse writes on a miss.
constexpr std::string_view kProbeMiss = "{\"hit\":false,\"ok\":true}";

// The outcome `name` names, when it is a name CacheOutcomeName writes.
std::optional<CacheOutcome> CacheOutcomeNamed(std::string_view name) {
  const Result<CacheOutcome> outcome = ParseCacheOutcome(std::string(name));
  if (!outcome.ok() || CacheOutcomeName(outcome.value()) != name) {
    return std::nullopt;
  }
  return outcome.value();
}

// True when `name` is a name TaskName writes.
bool IsTaskName(std::string_view name) {
  const Result<MiningTask> task = ParseTask(std::string(name));
  return task.ok() && TaskName(task.value()) == name;
}

constexpr uint64_t kMax64 = std::numeric_limits<uint64_t>::max();
constexpr uint64_t kMax32 = std::numeric_limits<uint32_t>::max();

// What is wrong with one entry of an "itemsets" or "rules" array.
enum class EntryFault { kNone, kMalformed, kBadItem };

// One {"items":[...],"support":N} entry, as WriteItemsets writes it.
EntryFault ItemsetEntry(CanonicalReader& in) {
  if (!in.Literal("{\"items\":")) return EntryFault::kMalformed;
  if (!in.Items()) return EntryFault::kBadItem;
  if (!in.Literal(",\"support\":") || !in.Uint(kMax32) || !in.Byte('}')) {
    return EntryFault::kMalformed;
  }
  return EntryFault::kNone;
}

// Reads an array of entries; `scan_entry` reads one entry.
template <typename ScanEntry>
Status ScanEntries(CanonicalReader& in, const std::string& name,
                   ScanEntry scan_entry) {
  if (!in.Byte('[')) return PeerError("'" + name + "' is not an array");
  if (in.Byte(']')) return Status::OK();
  EntryFault fault;
  do {
    fault = scan_entry(in);
  } while (fault == EntryFault::kNone && in.Byte(','));
  if (fault == EntryFault::kBadItem) {
    return PeerError("non-numeric item in '" + name + "'");
  }
  if (fault == EntryFault::kMalformed || !in.Byte(']')) {
    return PeerError("malformed '" + name + "' entry");
  }
  return Status::OK();
}

// Checks the value of member `key` and moves past it. The answer's
// cache outcome and count land in `*read`.
Status ScanValue(ReplyKey key, CanonicalReader& in, RelayedReply* read) {
  const std::string name(kReplyKeyNames[key]);
  std::string_view text;
  switch (key) {
    case kCache: {
      const std::optional<CacheOutcome> outcome =
          in.String(&text) ? CacheOutcomeNamed(text) : std::nullopt;
      if (!outcome.has_value()) {
        return PeerError("'cache' is not a cache outcome");
      }
      read->cache = *outcome;
      return Status::OK();
    }
    case kTask:
      if (in.String(&text) && IsTaskName(text)) return Status::OK();
      return PeerError("'task' is not a task name");
    case kDigest:
    case kTraceId:
      if (in.String(&text)) return Status::OK();
      return PeerError("'" + name + "' is not a canonical string");
    case kHit:
    case kOk:
      if (in.Literal("true")) return Status::OK();
      return PeerError("'" + name + "' is not true");
    case kMineMs:
    case kQueueMs:
      if (in.Number()) return Status::OK();
      return PeerError("'" + name + "' is not a number");
    case kNumResults:
    case kQueryId:
      if (const std::optional<uint64_t> n = in.Uint(kMax64)) {
        if (key == kNumResults) read->num_results = *n;
        return Status::OK();
      }
      return PeerError("'" + name + "' is not a number >= 0");
    case kItemsets:
      return ScanEntries(in, name, ItemsetEntry);
    case kRules:
      return ScanEntries(in, name, [](CanonicalReader& entry) {
        if (!entry.Literal("{\"antecedent\":")) return EntryFault::kMalformed;
        if (!entry.Items()) return EntryFault::kBadItem;
        if (!entry.Literal(",\"confidence\":") || !entry.Number() ||
            !entry.Literal(",\"consequent\":")) {
          return EntryFault::kMalformed;
        }
        if (!entry.Items()) return EntryFault::kBadItem;
        if (!entry.Literal(",\"lift\":") || !entry.Number() ||
            !entry.Literal(",\"support\":") || !entry.Uint(kMax32) ||
            !entry.Byte('}')) {
          return EntryFault::kMalformed;
        }
        return EntryFault::kNone;
      });
  }
  return PeerError("unknown key '" + name + "'");
}

// Checks a query or cache_probe-hit reply and records where each
// member's value sits, and in `*read` the answer's outcome and count.
Status ScanReply(std::string_view reply, bool probe, ReplyValues* values,
                 RelayedReply* read) {
  FPM_RETURN_IF_ERROR(ReadObject(
      reply, [&](std::string_view name, CanonicalReader& in) -> Status {
        const int key = static_cast<int>(
            std::find(std::begin(kReplyKeyNames), std::end(kReplyKeyNames),
                      name) -
            std::begin(kReplyKeyNames));
        if (key == kNumReplyKeys || (key == kHit && !probe)) {
          return PeerError("unknown key '" + std::string(name) + "'");
        }
        const size_t start = in.pos();
        FPM_RETURN_IF_ERROR(ScanValue(static_cast<ReplyKey>(key), in, read));
        (*values)[key] = in.Since(start);
        return Status::OK();
      }));
  for (ReplyKey key : kAlwaysWritten) {
    if ((*values)[key].empty()) {
      return PeerError("missing '" + std::string(kReplyKeyNames[key]) + "'");
    }
  }
  if (probe && (*values)[kHit].empty()) return PeerError("missing 'hit'");
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

std::string EncodeShardQueryRequest(const MineRequest& request) {
  PeerRequestFields fields;
  fields.op = "shard_query";
  fields.mode = "execute";
  return PeerRequestLine(request, fields);
}

std::string EncodeCacheProbeResponse(bool hit, const MineResponse& response) {
  if (hit) return QueryResponseLine(response, /*hit=*/true, std::nullopt);
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("hit").Bool(false).Key("ok").Bool(true).EndObject();
  return out;
}

Result<RelayedReply> RelayQueryResponse(std::string_view reply, bool probe,
                                        const RelayEnvelope& envelope) {
  RelayedReply relayed;
  relayed.peer = envelope.peer;
  if (probe && reply == kProbeMiss) return relayed;
  ReplyValues values;
  const Status scanned = ScanReply(reply, probe, &values, &relayed);
  if (!scanned.ok()) return CarriedOr(reply, scanned);
  std::string& out = relayed.line;
  out.reserve(reply.size() + envelope.peer.size() + envelope.trace_id.size() +
              32);
  JsonWriter w(&out);
  w.BeginObject();
  for (int key = 0; key < kNumReplyKeys; ++key) {
    switch (key) {
      case kHit:
        break;
      case kQueryId:
        // "peer" sorts between "ok" and "query_id".
        if (!envelope.peer.empty()) w.Key("peer").String(envelope.peer);
        w.Key("query_id").Uint(envelope.query_id);
        break;
      case kTraceId:
        if (!envelope.trace_id.empty()) {
          w.Key("trace_id").String(envelope.trace_id);
        }
        break;
      default:
        if (!values[key].empty()) w.Key(kReplyKeyNames[key]).Raw(values[key]);
    }
  }
  w.EndObject();
  return relayed;
}

Status ReplyStatus(std::string_view reply) {
  Status carried;
  FPM_RETURN_IF_ERROR(ReadEnvelope(reply, &carried));
  return carried;
}

Result<std::string> DecodeMetricsTextResponse(std::string_view line) {
  CanonicalReader in(line);
  std::string text;
  if (in.Literal("{\"ok\":true,\"text\":") && in.String(&text) &&
      in.Byte('}') && in.AtEnd()) {
    return text;
  }
  return CarriedOr(line, NotCanonical(in));
}

}  // namespace fpm
