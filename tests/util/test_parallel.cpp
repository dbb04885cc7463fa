#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace appscope::util {
namespace {

TEST(ParallelPool, RunCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 257;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelPool, PoolIsReusableAcrossBatches) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  for (int round = 0; round < 10; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.run(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<std::int64_t>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ParallelPool, BatchesActuallyRunOnMultipleThreads) {
  ThreadPool pool(4);
  std::mutex m;
  std::set<std::thread::id> ids;
  // Enough tasks that at least one background worker must pick some up;
  // each task briefly yields so the caller cannot drain the batch alone.
  pool.run(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(m);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);
}

TEST(ParallelPool, ExceptionPropagatesFromWorkerTask) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run(32,
                        [&](std::size_t i) {
                          if (i == 7) {
                            throw PreconditionError("task 7 failed");
                          }
                        }),
               PreconditionError);
  // The pool survives a throwing batch.
  std::atomic<int> count{0};
  pool.run(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ParallelPool, LowestIndexExceptionWins) {
  ThreadPool pool(8);
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      pool.run(64, [&](std::size_t i) {
        if (i % 3 == 1) {
          throw PreconditionError("task " + std::to_string(i));
        }
      });
      FAIL() << "expected PreconditionError";
    } catch (const PreconditionError& e) {
      EXPECT_STREQ(e.what(), "task 1");
    }
  }
}

TEST(ParallelPool, ResizeRestartsWorkers) {
  ThreadPool pool(2);
  pool.resize(5);
  EXPECT_EQ(pool.thread_count(), 5u);
  std::atomic<int> count{0};
  pool.run(20, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 20);
  pool.resize(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  pool.run(20, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 40);
}

/// A per-thread serial, taken on the thread's first use: unlike
/// std::thread::id, never reused by a later thread.
std::atomic<std::uint64_t> g_next_serial{1};
thread_local const std::uint64_t t_serial = g_next_serial.fetch_add(1);

/// The serials of `pool`'s background workers: one batch of thread_count()
/// tasks that each wait until all have started, so every thread of the
/// pool takes exactly one.
std::set<std::uint64_t> worker_serials(ThreadPool& pool) {
  const std::size_t n = pool.thread_count();
  std::mutex m;
  std::condition_variable all_started;
  std::size_t started = 0;
  std::set<std::uint64_t> serials;
  pool.run(n, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(m);
    serials.insert(t_serial);
    ++started;
    all_started.notify_all();
    EXPECT_TRUE(all_started.wait_for(lock, std::chrono::seconds(30),
                                     [&] { return started == n; }))
        << "the pool's threads did not all take a task";
  });
  serials.erase(t_serial);  // the caller's
  return serials;
}

TEST(ParallelPool, SameSizeResizeKeepsWorkers) {
  ThreadPool pool(3);
  const std::set<std::uint64_t> before = worker_serials(pool);
  EXPECT_EQ(before.size(), 2u);
  pool.resize(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  EXPECT_EQ(worker_serials(pool), before);

  // A real resize joins them and starts new ones.
  pool.resize(4);
  const std::set<std::uint64_t> after = worker_serials(pool);
  EXPECT_EQ(after.size(), 3u);
  for (const std::uint64_t serial : after) EXPECT_FALSE(before.contains(serial));
}

TEST(ParallelPool, NestedRunExecutesInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.run(8, [&](std::size_t) {
    // A nested batch from inside a worker must not deadlock on the busy
    // pool; it runs inline on the current thread.
    ThreadPool::global().run(4, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ParallelPool, DefaultThreadCountReadsEnvVar) {
  ::setenv("APPSCOPE_THREADS", "6", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 6u);
  ::setenv("APPSCOPE_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ::setenv("APPSCOPE_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ::unsetenv("APPSCOPE_THREADS");
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ParallelFor, ChunksPartitionTheRange) {
  ThreadPool::set_global_threads(4);
  std::vector<int> hits(103, 0);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(3, 103, 10, [&](std::size_t lo, std::size_t hi) {
    {
      const std::lock_guard<std::mutex> lock(m);
      chunks.emplace_back(lo, hi);
    }
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i], 0) << i;
  for (std::size_t i = 3; i < 103; ++i) EXPECT_EQ(hits[i], 1) << i;
  EXPECT_EQ(chunks.size(), 10u);  // (103 - 3) / 10
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ((lo - 3) % 10, 0u);
    EXPECT_EQ(hi, std::min<std::size_t>(lo + 10, 103));
  }
  ThreadPool::set_global_threads(0);
}

TEST(ParallelFor, EmptyRangeAndPreconditions) {
  parallel_for(5, 5, 4, [](std::size_t, std::size_t) { FAIL(); });
  EXPECT_THROW(parallel_for(0, 10, 0, [](std::size_t, std::size_t) {}),
               PreconditionError);
  EXPECT_THROW(parallel_for(10, 5, 1, [](std::size_t, std::size_t) {}),
               PreconditionError);
}

}  // namespace
}  // namespace appscope::util
