// Priority job scheduler on top of the work-stealing ThreadPool.
//
// The pool itself has no priority or bounding concept — mining tasks
// are all equal there. The service needs both: interactive queries must
// overtake bulk ones, and a full queue must push back instead of
// buffering unboundedly. The scheduler keeps its own priority heap and
// feeds the pool *runner* tasks: a runner loops popping the highest-
// priority job and running it, exiting when the heap drains. At most
// one runner per pool worker exists, so the pool's workers are shared
// fairly between the scheduler and any parallel mining the jobs
// themselves do.
//
// Backpressure: Submit() fails with ResourceExhausted once
// `max_queue_depth` jobs are queued (not yet running) — the caller (the
// daemon) maps that to an error response rather than queueing blindly.

#ifndef FPM_SERVICE_JOB_SCHEDULER_H_
#define FPM_SERVICE_JOB_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

#include "fpm/common/status.h"
#include "fpm/parallel/thread_pool.h"

namespace fpm {

class Counter;
class Gauge;

struct JobSchedulerOptions {
  ThreadPool* pool = nullptr;     ///< required; not owned
  size_t max_queue_depth = 64;    ///< Submit() backpressure bound
};

/// One job currently executing on a pool worker (stats() view).
struct InFlightJob {
  uint64_t query_id = 0;     ///< 0 for jobs submitted without an id
  double age_seconds = 0.0;  ///< since the job started running
};

struct JobSchedulerStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;   ///< backpressure rejections
  uint64_t completed = 0;
  size_t queue_depth = 0;  ///< queued, not yet running
  size_t running = 0;
  std::vector<InFlightJob> in_flight;  ///< the `running` jobs, with ages
};

class JobScheduler {
 public:
  explicit JobScheduler(JobSchedulerOptions options);

  /// Drains: blocks until every accepted job has run.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues `job` at `priority` (higher runs first; FIFO within a
  /// priority). ResourceExhausted when the queue is full. The job runs
  /// on a pool worker; it must not block on other scheduler jobs.
  /// `query_id` labels the job in stats().in_flight (0 = unlabelled).
  Status Submit(int priority, uint64_t query_id, std::function<void()> job);
  Status Submit(int priority, std::function<void()> job) {
    return Submit(priority, /*query_id=*/0, std::move(job));
  }

  /// Blocks until the queue is empty and no job is running.
  void Drain();

  JobSchedulerStats stats() const;

 private:
  struct QueuedJob {
    int priority = 0;
    uint64_t seq = 0;       ///< FIFO tie-break
    uint64_t query_id = 0;  ///< stats()/watchdog label
    std::function<void()> fn;
  };
  struct RunningJob {
    uint64_t seq = 0;  ///< identifies the slot across start/finish
    uint64_t query_id = 0;
    std::chrono::steady_clock::time_point start;
  };
  struct JobOrder {
    bool operator()(const QueuedJob& a, const QueuedJob& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;  // earlier submission first
    }
  };

  /// Runner body: pops and runs jobs until the heap is empty.
  void RunnerLoop();

  JobSchedulerOptions options_;
  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  std::priority_queue<QueuedJob, std::vector<QueuedJob>, JobOrder> queue_;
  uint64_t next_seq_ = 0;
  uint32_t active_runners_ = 0;
  size_t running_ = 0;
  std::vector<RunningJob> running_jobs_;
  uint64_t submitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t completed_ = 0;

  // fpm.service.jobs.* metrics.
  Counter* submitted_counter_;
  Counter* rejected_counter_;
  Counter* completed_counter_;
  Gauge* queue_depth_gauge_;
};

}  // namespace fpm

#endif  // FPM_SERVICE_JOB_SCHEDULER_H_
