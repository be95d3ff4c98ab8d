#include "fpm/obs/query_log.h"

#include <chrono>
#include <cstdio>
#include <ostream>

#include "fpm/common/json_writer.h"

namespace fpm {
namespace {

void AppendField(std::string& out, const char* key, const std::string& value) {
  if (value.empty()) return;
  out += ",\"";
  out += key;
  out += "\":";
  AppendJsonString(&out, value);
}

void AppendField(std::string& out, const char* key, uint64_t value) {
  if (value == 0) return;
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void AppendMsField(std::string& out, const char* key, double ms) {
  if (ms <= 0.0) return;
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.3f", key, ms);
  out += buf;
}

}  // namespace

std::string QueryLogEntry::ToJson(uint64_t ts_ms) const {
  std::string out;
  out.reserve(256);
  out += "{\"event\":";
  AppendJsonString(&out, event);
  out += ",\"ts_ms\":";
  out += std::to_string(ts_ms);
  out += ",\"query_id\":";
  out += std::to_string(query_id);
  AppendField(out, "trace_id", trace_id);
  AppendField(out, "op", op);
  AppendField(out, "peer", peer);
  AppendField(out, "task", task);
  AppendField(out, "dataset", dataset);
  AppendField(out, "dataset_id", dataset_id);
  AppendField(out, "version", dataset_version);
  AppendField(out, "digest", digest);
  AppendField(out, "algorithm", algorithm);
  AppendField(out, "min_support", min_support);
  AppendField(out, "k", k);
  AppendMsField(out, "queue_ms", queue_ms);
  AppendMsField(out, "mine_ms", mine_ms);
  AppendMsField(out, "derive_ms", derive_ms);
  AppendMsField(out, "remote_ms", remote_ms);
  AppendField(out, "cache", cache);
  AppendField(out, "num_results", num_results);
  AppendField(out, "peak_bytes", peak_bytes);
  AppendField(out, "bytes_out", bytes_out);
  out += ",\"status\":";
  AppendJsonString(&out, status);
  AppendField(out, "reason", reason);
  out += '}';
  return out;
}

Status QueryLog::OpenFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  file_.open(path, std::ios::app);
  if (!file_) {
    return Status::IOError("cannot open query log '" + path + "'");
  }
  sink_ = &file_;
  enabled_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

void QueryLog::SetStream(std::ostream* os) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = os;
  enabled_.store(os != nullptr, std::memory_order_relaxed);
}

void QueryLog::Write(const QueryLogEntry& entry) {
  if (!enabled()) return;
  const uint64_t ts_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  // Serialize outside the lock; the contended section is one append.
  const std::string line = entry.ToJson(ts_ms);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sink_ == nullptr) return;
    *sink_ << line << '\n';
    sink_->flush();
  }
  lines_written_.fetch_add(1, std::memory_order_relaxed);
  const double total_ms =
      entry.queue_ms + entry.mine_ms + entry.derive_ms + entry.remote_ms;
  if (slow_threshold_ms_ > 0.0 && total_ms >= slow_threshold_ms_) {
    std::fprintf(stderr, "fpm slow query (%.3f ms): %s\n", total_ms,
                 line.c_str());
  }
}

}  // namespace fpm
