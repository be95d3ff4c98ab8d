#include "fpm/service/job_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "fpm/parallel/thread_pool.h"

namespace fpm {
namespace {

/// A manually released gate: jobs submitted behind it stay queued until
/// the test opens it, which makes queue-order observations race-free.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void WaitOpen() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(JobSchedulerTest, RunsSubmittedJobs) {
  ThreadPool pool(2);
  JobSchedulerOptions options;
  options.pool = &pool;
  JobScheduler scheduler(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(scheduler.Submit(0, [&] { ran.fetch_add(1); }).ok());
  }
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(scheduler.stats().submitted, 16u);
  EXPECT_EQ(scheduler.stats().completed, 16u);
  EXPECT_EQ(scheduler.stats().queue_depth, 0u);
}

TEST(JobSchedulerTest, HigherPriorityOvertakesFifoWithinPriority) {
  ThreadPool pool(1);
  JobSchedulerOptions options;
  options.pool = &pool;  // one worker, one runner -> strictly ordered pops
  JobScheduler scheduler(options);

  Gate gate;
  std::vector<int> order;
  std::mutex order_mu;
  // The gate job occupies the single runner while the real jobs queue.
  ASSERT_TRUE(scheduler.Submit(100, [&] { gate.WaitOpen(); }).ok());
  auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(scheduler.Submit(1, record(1)).ok());
  ASSERT_TRUE(scheduler.Submit(5, record(50)).ok());
  ASSERT_TRUE(scheduler.Submit(3, record(3)).ok());
  ASSERT_TRUE(scheduler.Submit(5, record(51)).ok());
  gate.Open();
  scheduler.Drain();

  const std::vector<int> expected = {50, 51, 3, 1};
  EXPECT_EQ(order, expected);
}

TEST(JobSchedulerTest, BackpressureRejectsWhenFull) {
  ThreadPool pool(1);
  JobSchedulerOptions options;
  options.pool = &pool;
  options.max_queue_depth = 2;
  JobScheduler scheduler(options);

  Gate gate;
  ASSERT_TRUE(scheduler.Submit(0, [&] { gate.WaitOpen(); }).ok());
  // The runner may or may not have picked the gate job up yet; give it
  // a moment so the queue is empty before we fill it.
  while (scheduler.stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(scheduler.Submit(0, [] {}).ok());
  ASSERT_TRUE(scheduler.Submit(0, [] {}).ok());
  const Status rejected = scheduler.Submit(0, [] {});
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.stats().rejected, 1u);

  gate.Open();
  scheduler.Drain();
  // Space freed up: submissions are accepted again.
  EXPECT_TRUE(scheduler.Submit(0, [] {}).ok());
  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().completed, 4u);
}

TEST(JobSchedulerTest, DestructorDrains) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  {
    JobSchedulerOptions options;
    options.pool = &pool;
    JobScheduler scheduler(options);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(scheduler.Submit(0, [&] { ran.fetch_add(1); }).ok());
    }
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(JobSchedulerTest, ConcurrencyIsBounded) {
  ThreadPool pool(2);  // at most one runner per worker
  JobSchedulerOptions options;
  options.pool = &pool;
  options.max_queue_depth = 64;
  JobScheduler scheduler(options);

  std::atomic<int> inflight{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(scheduler
                    .Submit(0,
                            [&] {
                              const int now = inflight.fetch_add(1) + 1;
                              int seen = peak.load();
                              while (now > seen &&
                                     !peak.compare_exchange_weak(seen, now)) {
                              }
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(1));
                              inflight.fetch_sub(1);
                            })
                    .ok());
  }
  scheduler.Drain();
  EXPECT_LE(peak.load(), 2);
  EXPECT_EQ(scheduler.stats().completed, 32u);
}

}  // namespace
}  // namespace fpm
