// Structured per-query log: one JSON object per line, one line per
// finished (or rejected) request, designed to be grep/jq-friendly and
// cheap enough to sit on the service request path.
//
// Write path: the entry is serialized to a string with no lock held,
// then appended to the sink under a mutex (one contended section per
// query, a few hundred bytes of I/O). A disabled log — the default —
// costs one relaxed load and a branch per Write(), which keeps the
// hook inside the <1% obs-overhead budget (see bench_obs_overhead).
//
// A slow-query threshold can be set; entries whose total wall time
// (queue + mine + derive, or a relayed query's remote exchange) meets it
// are additionally mirrored to stderr so operators see outliers without
// tailing the log file.

#ifndef FPM_OBS_QUERY_LOG_H_
#define FPM_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>

#include "fpm/common/status.h"

namespace fpm {

/// One query's record. Fields left at their default are omitted from
/// the JSON line (except the always-present event/query_id/status).
struct QueryLogEntry {
  std::string event = "query";  ///< "query" | "watchdog_stuck"
  uint64_t query_id = 0;
  std::string trace_id;  ///< client-supplied passthrough, may be empty
  /// Entry point: "shard_query" (a peer's forward), "relay" (a cluster
  /// entry's line for a query a peer answered), "cli", or empty.
  std::string op;
  std::string peer;      ///< relay only: the owner that answered
  std::string task;      ///< frequent | closed | maximal | top_k | rules
  std::string dataset;   ///< path, when addressed by path
  std::string dataset_id;
  uint64_t dataset_version = 0;
  std::string digest;
  std::string algorithm;
  uint64_t min_support = 0;
  uint64_t k = 0;           ///< top-k only
  double queue_ms = 0.0;    ///< scheduler wait
  double mine_ms = 0.0;     ///< kernel wall time (0 on cache hits)
  double derive_ms = 0.0;   ///< cache derivation / reseed wall time
  double remote_ms = 0.0;   ///< relay only: the peer exchange's wall time
  std::string cache;        ///< miss|hit|dominated|cross_task|reseeded
  uint64_t num_results = 0;
  uint64_t peak_bytes = 0;  ///< peak arena bytes, when known
  uint64_t bytes_out = 0;   ///< relay only: the relayed line's bytes
  std::string status;       ///< ok | error | cancelled | deadline | rejected
  std::string reason;       ///< error / cancellation / watchdog detail

  /// The JSON object for this entry (no trailing newline). `ts_ms` is
  /// stamped by the caller so serialization stays deterministic.
  std::string ToJson(uint64_t ts_ms) const;
};

/// Append-only JSON-lines sink. Thread-safe; starts disabled.
class QueryLog {
 public:
  QueryLog() = default;

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Opens `path` for appending and enables the log.
  Status OpenFile(const std::string& path);

  /// Routes lines to `os` (not owned, must outlive the log) and enables
  /// the log. Tests and in-memory consumers use this.
  void SetStream(std::ostream* os);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Entries at least this slow (queue + mine + derive + remote wall
  /// time) are mirrored to stderr. 0 disables mirroring.
  void set_slow_threshold_ms(double ms) { slow_threshold_ms_ = ms; }
  double slow_threshold_ms() const { return slow_threshold_ms_; }

  /// Appends one line (stamped with the current wall clock) and flushes.
  /// No-op when disabled.
  void Write(const QueryLogEntry& entry);

  /// Lines appended since construction.
  uint64_t lines_written() const {
    return lines_written_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> enabled_{false};
  double slow_threshold_ms_ = 0.0;
  std::atomic<uint64_t> lines_written_{0};

  std::mutex mu_;  // guards sink_ / file_
  std::ofstream file_;
  std::ostream* sink_ = nullptr;  // == &file_ after OpenFile()
};

}  // namespace fpm

#endif  // FPM_OBS_QUERY_LOG_H_
