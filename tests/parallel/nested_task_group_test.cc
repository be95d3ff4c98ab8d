// TaskGroup fork-join semantics, and the continuation-safety property
// of its helping join: a worker blocked in Wait() executes
// pending tasks instead of idling, so arbitrarily deep fork-join nesting
// on a tiny pool cannot deadlock.

#include "fpm/parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

namespace fpm {
namespace {

TEST(TaskGroupTest, RunsEveryForkedTask) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<uint64_t> ran{0};
  constexpr uint64_t kTasks = 200;
  for (uint64_t i = 0; i < kTasks; ++i) {
    group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(TaskGroupTest, WaitOnEmptyGroupReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Wait();  // must not hang
}

TEST(TaskGroupTest, ReusableAfterWait) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    EXPECT_EQ(ran.load(), (round + 1) * 10);
  }
}

TEST(TaskGroupTest, TasksCanForkOntoTheirOwnGroup) {
  // The outer Wait() must cover tasks forked by tasks.
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<uint64_t> ran{0};
  for (int i = 0; i < 8; ++i) {
    group.Run([&group, &ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < 4; ++j) {
        group.Run([&group, &ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
          group.Run(
              [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        });
      }
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 8u * (1 + 4 * 2));
}

// Full binary tree of fork-joins: every interior node forks two
// children onto a fresh group and joins them from inside a pool task.
// With more tree levels than workers, progress is impossible unless a
// worker blocked in Wait() helps execute pending tasks.
uint64_t TreeSum(ThreadPool* pool, uint32_t levels) {
  if (levels == 0) return 1;
  TaskGroup group(pool);
  std::atomic<uint64_t> sum{1};
  for (int child = 0; child < 2; ++child) {
    group.Run([pool, levels, &sum] {
      sum.fetch_add(TreeSum(pool, levels - 1), std::memory_order_relaxed);
    });
  }
  group.Wait();
  return sum.load();
}

TEST(TaskGroupTest, NestedJoinsOnTinyPoolDoNotDeadlock) {
  ThreadPool pool(2);
  // 2^9 - 1 nodes, 255 interior joins, 2 workers.
  EXPECT_EQ(TreeSum(&pool, 8), (1u << 9) - 1);
}

TEST(TaskGroupTest, NestedJoinsOnSingleWorkerPool) {
  // The degenerate pool: every join must be served by the one worker
  // helping through its own blocked frames.
  ThreadPool pool(1);
  EXPECT_EQ(TreeSum(&pool, 6), (1u << 7) - 1);
}

TEST(TaskGroupTest, TwoGroupsOnOnePoolStayIndependent) {
  ThreadPool pool(4);
  TaskGroup a(&pool);
  TaskGroup b(&pool);
  std::atomic<int> ran_a{0};
  std::atomic<int> ran_b{0};
  for (int i = 0; i < 50; ++i) {
    a.Run([&ran_a] { ran_a.fetch_add(1, std::memory_order_relaxed); });
    b.Run([&ran_b] { ran_b.fetch_add(1, std::memory_order_relaxed); });
  }
  a.Wait();
  EXPECT_EQ(ran_a.load(), 50);
  b.Wait();
  EXPECT_EQ(ran_b.load(), 50);
}

TEST(ThreadPoolTest, HelpWhileFromNonWorkerBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<bool> flag{false};
  pool.Submit([&flag] { flag.store(true, std::memory_order_release); });
  pool.Submit([&pool] { pool.NotifyGroupWaiters(); });
  pool.HelpWhile(
      [&flag] { return flag.load(std::memory_order_acquire); });
  EXPECT_TRUE(flag.load());
  pool.Wait();
}

}  // namespace
}  // namespace fpm
