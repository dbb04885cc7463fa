// appscope/util/parallel.hpp
//
// Deterministic thread-pool parallelism for the nationwide pipeline.
//
// The pool is a lazily-started, reusable singleton sized from the
// APPSCOPE_THREADS environment variable (falling back to
// hardware_concurrency). The helpers on top of it are built around one
// rule that every parallel stage in appscope follows:
//
//   the work decomposition (chunk boundaries) depends only on the range
//   and the chunk grain — never on the thread count — and any reduction
//   combines per-chunk partials in chunk-index order.
//
// With independent chunks and an ordered merge, running at 1, 2 or 64
// threads produces bitwise-identical results, so the seeded-reproducibility
// guarantee of util::Rng survives parallel execution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/error.hpp"

namespace appscope::util {

/// Reusable fixed-size worker pool. ThreadPool(n) targets n concurrent
/// threads: n - 1 background workers plus the calling thread, which
/// participates in every batch (ThreadPool(1) runs everything inline with
/// no background threads at all).
///
/// run() executes one batch at a time; concurrent run() calls from
/// different threads serialize. A run() issued from inside a pool task
/// executes inline on that worker, so nested parallelism cannot deadlock.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Target concurrency (background workers + the calling thread).
  std::size_t thread_count() const noexcept;

  /// Runs task(i) for every i in [0, task_count) and blocks until all
  /// complete. Tasks must be independent. If tasks throw, every task still
  /// runs and the exception thrown by the lowest task index is rethrown
  /// (a deterministic choice at any thread count).
  void run(std::size_t task_count, const std::function<void(std::size_t)>& task);

  /// Stops and re-spawns the workers with a new target concurrency; a
  /// resize to the current one keeps its workers. Must not race with run()
  /// calls from other threads.
  void resize(std::size_t threads);

  /// The process-wide pool, created on first use with default_thread_count().
  static ThreadPool& global();
  /// Resizes the global pool (0 restores default_thread_count()).
  static void set_global_threads(std::size_t threads);
  static std::size_t global_thread_count();

  /// APPSCOPE_THREADS if set to a positive integer, else
  /// std::thread::hardware_concurrency (at least 1).
  static std::size_t default_thread_count();

 private:
  struct Batch;
  class Impl;
  Impl* impl_;
};

/// Splits [begin, end) into consecutive chunks of `chunk` indices (the last
/// chunk may be short) and calls fn(chunk_begin, chunk_end) for each on the
/// global pool. Chunk boundaries depend only on (begin, end, chunk), so any
/// per-chunk deterministic work (e.g. a forked Rng stream per chunk) yields
/// identical results at every thread count.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t chunk,
                  Fn&& fn) {
  APPSCOPE_REQUIRE(chunk > 0, "parallel_for: chunk grain must be positive");
  APPSCOPE_REQUIRE(begin <= end, "parallel_for: begin must be <= end");
  if (begin == end) return;
  const std::size_t span = end - begin;
  const std::size_t chunks = (span + chunk - 1) / chunk;
  ThreadPool::global().run(chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = lo + chunk < end ? lo + chunk : end;
    fn(lo, hi);
  });
}

}  // namespace appscope::util
