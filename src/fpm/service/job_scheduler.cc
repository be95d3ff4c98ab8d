#include "fpm/service/job_scheduler.h"

#include <algorithm>
#include <utility>

#include "fpm/obs/metrics.h"

namespace fpm {

JobScheduler::JobScheduler(JobSchedulerOptions options)
    : options_(options) {
  MetricsRegistry& m = MetricsRegistry::Default();
  submitted_counter_ = m.GetCounter("fpm.service.jobs.submitted");
  rejected_counter_ = m.GetCounter("fpm.service.jobs.rejected");
  completed_counter_ = m.GetCounter("fpm.service.jobs.completed");
  queue_depth_gauge_ = m.GetGauge("fpm.service.jobs.queue_depth");
}

JobScheduler::~JobScheduler() { Drain(); }

Status JobScheduler::Submit(int priority, uint64_t query_id,
                            std::function<void()> job) {
  bool spawn_runner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= options_.max_queue_depth) {
      ++rejected_;
      rejected_counter_->Increment();
      return Status::ResourceExhausted(
          "job queue full (" + std::to_string(queue_.size()) + " queued)");
    }
    queue_.push(QueuedJob{priority, next_seq_++, query_id, std::move(job)});
    ++submitted_;
    submitted_counter_->Increment();
    queue_depth_gauge_->Set(queue_.size());
    if (active_runners_ < options_.pool->num_workers()) {
      ++active_runners_;
      spawn_runner = true;
    }
  }
  if (spawn_runner) {
    options_.pool->Submit([this] { RunnerLoop(); });
  }
  return Status::OK();
}

void JobScheduler::RunnerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!queue_.empty()) {
    // priority_queue::top() is const; the job is moved out via the
    // const_cast idiom (the element is popped immediately after).
    std::function<void()> fn =
        std::move(const_cast<QueuedJob&>(queue_.top()).fn);
    const uint64_t seq = queue_.top().seq;
    const uint64_t query_id = queue_.top().query_id;
    queue_.pop();
    ++running_;
    running_jobs_.push_back(
        RunningJob{seq, query_id, std::chrono::steady_clock::now()});
    queue_depth_gauge_->Set(queue_.size());
    lock.unlock();

    fn();

    lock.lock();
    --running_;
    running_jobs_.erase(
        std::find_if(running_jobs_.begin(), running_jobs_.end(),
                     [seq](const RunningJob& r) { return r.seq == seq; }));
    ++completed_;
    completed_counter_->Increment();
  }
  --active_runners_;
  if (queue_.empty() && running_ == 0 && active_runners_ == 0) {
    drain_cv_.notify_all();
  }
}

void JobScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    return queue_.empty() && running_ == 0 && active_runners_ == 0;
  });
}

JobSchedulerStats JobScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  JobSchedulerStats s;
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.queue_depth = queue_.size();
  s.running = running_;
  const auto now = std::chrono::steady_clock::now();
  s.in_flight.reserve(running_jobs_.size());
  for (const RunningJob& r : running_jobs_) {
    s.in_flight.push_back(InFlightJob{
        r.query_id,
        std::chrono::duration<double>(now - r.start).count()});
  }
  return s;
}

}  // namespace fpm
