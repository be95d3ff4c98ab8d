#include "fpm/parallel/task_metrics.h"

#include "fpm/obs/metrics.h"
#include "fpm/obs/thread_index.h"

namespace fpm {

TaskTelemetry::TaskTelemetry() {
  MetricsRegistry& registry = MetricsRegistry::Default();
  if (!registry.enabled()) return;
  wall_hist_ = registry.GetHistogram(
      "fpm.task.wall_micros",
      {10, 100, 1000, 10000, 100000, 1000000, 10000000});
  busy_max_gauge_ = registry.GetGauge("fpm.task.busy_max_micros");
  busy_mean_gauge_ = registry.GetGauge("fpm.task.busy_mean_micros");
  imbalance_gauge_ = registry.GetGauge("fpm.task.imbalance_milli");
}

void TaskTelemetry::RecordTask(uint64_t wall_micros) {
  if (wall_hist_ != nullptr) wall_hist_->Observe(wall_micros);
  std::lock_guard<std::mutex> lk(mu_);
  busy_micros_[ObsThreadIndex()] += wall_micros;
}

void TaskTelemetry::Finish() {
  if (busy_max_gauge_ == nullptr) return;
  busy_max_gauge_->Set(busy_max_micros());
  const uint64_t mean = busy_mean_micros();
  busy_mean_gauge_->Set(mean);
  imbalance_gauge_->Set(mean == 0 ? 0 : busy_max_micros() * 1000 / mean);
}

uint64_t TaskTelemetry::busy_max_micros() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t max = 0;
  for (const auto& [tid, micros] : busy_micros_) {
    if (micros > max) max = micros;
  }
  return max;
}

uint64_t TaskTelemetry::busy_mean_micros() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (busy_micros_.empty()) return 0;
  uint64_t sum = 0;
  for (const auto& [tid, micros] : busy_micros_) sum += micros;
  return sum / busy_micros_.size();
}

}  // namespace fpm
