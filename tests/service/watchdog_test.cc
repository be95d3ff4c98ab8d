// StuckJobWatchdog tests: deterministic Sweep()-driven flagging, the
// monitor thread, and the end-to-end path — a service job artificially
// stalled inside the kernel hook is flagged into the query log while
// still running, then completes normally.

#include "fpm/service/watchdog.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>

#include "fpm/obs/query_log.h"
#include "fpm/service/service.h"
#include "service/service_test_util.h"

namespace fpm {
namespace {

void SpinFor(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(WatchdogTest, FlagsJobsPastTheAbsoluteBoundOnce) {
  std::ostringstream log_out;
  QueryLog log;
  log.SetStream(&log_out);
  WatchdogOptions options;
  options.absolute_seconds = 0.005;
  options.interval_seconds = 0.0;  // no monitor thread: Sweep() driven
  options.query_log = &log;
  StuckJobWatchdog watchdog(options);

  watchdog.Register(42, "frequent", /*deadline_seconds=*/0.0);
  EXPECT_EQ(watchdog.Sweep(), 0u);  // too young to flag
  SpinFor(0.01);
  EXPECT_EQ(watchdog.Sweep(), 1u);
  EXPECT_EQ(watchdog.Sweep(), 0u);  // flagged once, not per sweep

  const WatchdogStats stats = watchdog.stats();
  EXPECT_EQ(stats.sweeps, 3u);
  EXPECT_EQ(stats.flagged, 1u);
  EXPECT_EQ(stats.stuck_now, 1u);

  const std::string line = log_out.str();
  EXPECT_NE(line.find("\"event\":\"watchdog_stuck\""), std::string::npos);
  EXPECT_NE(line.find("\"query_id\":42"), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"stuck\""), std::string::npos);
  EXPECT_NE(line.find("bound absolute"), std::string::npos);
  EXPECT_EQ(log.lines_written(), 1u);

  watchdog.Unregister(42);
  EXPECT_EQ(watchdog.stats().stuck_now, 0u);
  EXPECT_EQ(watchdog.stats().flagged, 1u);  // history survives
}

TEST(WatchdogTest, DeadlineFactorBoundOnlyAppliesToDeadlineJobs) {
  WatchdogOptions options;
  options.deadline_factor = 2.0;
  options.interval_seconds = 0.0;
  StuckJobWatchdog watchdog(options);

  watchdog.Register(1, "frequent", /*deadline_seconds=*/0.002);
  watchdog.Register(2, "closed", /*deadline_seconds=*/0.0);  // no deadline
  SpinFor(0.01);
  // Only the deadline-armed job trips the factor bound; with no
  // absolute bound the deadline-less job can run forever.
  EXPECT_EQ(watchdog.Sweep(), 1u);
  EXPECT_EQ(watchdog.stats().stuck_now, 1u);
  watchdog.Unregister(1);
  watchdog.Unregister(2);
}

TEST(WatchdogTest, MonitorThreadSweepsOnItsOwn) {
  WatchdogOptions options;
  options.absolute_seconds = 0.002;
  options.interval_seconds = 0.005;
  StuckJobWatchdog watchdog(options);
  watchdog.Start();
  watchdog.Register(7, "frequent", 0.0);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (watchdog.stats().flagged == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(watchdog.stats().flagged, 1u);
  EXPECT_GE(watchdog.stats().sweeps, 1u);
}

TEST(WatchdogTest, ServiceFlagsAnArtificiallyStalledJob) {
  const std::string path =
      test::WriteTempFimi("watchdog_stall.dat", test::SmallFimiText());
  std::ostringstream log_out;
  QueryLog log;
  log.SetStream(&log_out);

  MiningService::Options options;
  options.num_threads = 2;
  options.query_log = &log;
  options.watchdog_absolute_seconds = 0.005;
  options.watchdog_interval_seconds = 0.0;  // swept by hand below
  MiningService service(options);

  // The hook stalls the job inside RunJob — after the watchdog has it
  // registered, before the kernel runs — until the test releases it.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> entered;
  bool entered_once = false;
  service.set_mine_hook_for_test([&] {
    if (!entered_once) {
      entered_once = true;
      entered.set_value();
    }
    released.wait();
  });

  MineRequest request;
  request.dataset_path = path;
  request.query.min_support = 2;
  auto submitted = service.Submit(request);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  entered.get_future().wait();

  // The job is wedged in the "kernel": old enough to trip the absolute
  // bound on the next sweep, and visible as in-flight in Stats().
  SpinFor(0.01);
  EXPECT_EQ(service.watchdog().Sweep(), 1u);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.watchdog.stuck_now, 1u);
  ASSERT_EQ(stats.scheduler.in_flight.size(), 1u);
  const uint64_t query_id = stats.scheduler.in_flight[0].query_id;
  EXPECT_NE(query_id, 0u);
  EXPECT_GT(stats.scheduler.in_flight[0].age_seconds, 0.0);
  EXPECT_NE(log_out.str().find("\"event\":\"watchdog_stuck\""),
            std::string::npos);
  EXPECT_NE(log_out.str().find("\"query_id\":" + std::to_string(query_id)),
            std::string::npos);

  // Un-wedge: the job completes normally and leaves the stuck gauge.
  // Take() waits for the job to finish.
  release.set_value();
  auto response = submitted.value()->Take();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->query_id, query_id);
  EXPECT_EQ(service.watchdog().stats().stuck_now, 0u);
  // The scheduler retires the job just after the job publishes its
  // result, so give that bookkeeping a moment.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!service.Stats().scheduler.in_flight.empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.Stats().scheduler.in_flight.size(), 0u);

  // The completion line for the stalled query landed in the same log.
  EXPECT_NE(log_out.str().find("\"status\":\"ok\""), std::string::npos);
  service.set_mine_hook_for_test(nullptr);
}

}  // namespace
}  // namespace fpm
