// fpm.task.* telemetry of the parallel driver.
//
// One TaskTelemetry per Mine() call records every class task's wall time
// (a histogram plus a per-worker busy-time ledger). Finish() turns the
// ledger into the load-balance gauges the scaling bench reports:
//
//   fpm.task.wall_micros      histogram of per-class-task wall times
//   fpm.task.busy_max_micros  busiest worker's total task time
//   fpm.task.busy_mean_micros mean total task time over active workers
//   fpm.task.imbalance_milli  1000 * max / mean (1000 == perfectly even)

#ifndef FPM_PARALLEL_TASK_METRICS_H_
#define FPM_PARALLEL_TASK_METRICS_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace fpm {

class Gauge;
class Histogram;

/// Per-run task telemetry. RecordTask() is safe from any thread; Finish()
/// must be called once, after the join.
/// When the default metrics registry is disabled every call is a cheap
/// no-op apart from the busy ledger (one mutexed map update per task —
/// tasks are coarse, so this is nowhere near the hot path).
class TaskTelemetry {
 public:
  TaskTelemetry();

  TaskTelemetry(const TaskTelemetry&) = delete;
  TaskTelemetry& operator=(const TaskTelemetry&) = delete;

  /// One class task finished on the calling thread after `wall_micros`
  /// of work.
  void RecordTask(uint64_t wall_micros);

  /// Publishes the busy_max / busy_mean / imbalance gauges.
  void Finish();

  /// Busiest worker's accumulated task micros (valid any time).
  uint64_t busy_max_micros() const;
  /// Mean accumulated task micros over workers that ran >= 1 task.
  uint64_t busy_mean_micros() const;

 private:
  // Resolved once at construction; null when the registry is disabled.
  Histogram* wall_hist_ = nullptr;
  Gauge* busy_max_gauge_ = nullptr;
  Gauge* busy_mean_gauge_ = nullptr;
  Gauge* imbalance_gauge_ = nullptr;

  mutable std::mutex mu_;
  std::unordered_map<uint32_t, uint64_t> busy_micros_;  // ObsThreadIndex ->
};

}  // namespace fpm

#endif  // FPM_PARALLEL_TASK_METRICS_H_
