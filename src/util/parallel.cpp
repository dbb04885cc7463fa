#include "util/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace appscope::util {

namespace {
/// True on threads that belong to some pool; nested run() calls from a
/// worker execute inline instead of re-entering the (possibly busy) pool.
thread_local bool t_inside_pool_worker = false;
}  // namespace

/// One run() invocation. Lives on the caller's stack; workers claim task
/// indices via the atomic cursor and record failures under the pool mutex.
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* task = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  /// Observability (sampled only when metrics are enabled at submit time):
  /// summed per-participant busy nanoseconds, for batch utilization, plus
  /// the submitting thread's span context — workers restore it so their
  /// "pool.task" spans (and any spans the tasks open) parent to the
  /// submitting "pool.batch" span instead of being orphaned roots.
  bool metrics = false;
  SpanContext span_ctx;
  std::atomic<std::uint64_t> busy_ns{0};
};

class ThreadPool::Impl {
 public:
  explicit Impl(std::size_t threads) { start(threads); }

  ~Impl() { stop(); }

  std::size_t thread_count() const noexcept { return thread_count_; }

  void resize(std::size_t threads) {
    const std::lock_guard<std::mutex> admin(run_mutex_);
    if ((threads == 0 ? 1 : threads) == thread_count_) return;
    stop();
    start(threads);
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& task) {
    if (count == 0) return;
    const bool metrics = MetricsRegistry::enabled();
    if (count == 1 || thread_count_ <= 1 || t_inside_pool_worker) {
      // Inline path with the same semantics as the pooled one: every task
      // runs, the lowest-index failure is rethrown.
      if (metrics) {
        MetricsRegistry::global().add("pool.inline_tasks", count);
      }
      std::exception_ptr error;
      for (std::size_t i = 0; i < count; ++i) {
        try {
          task(i);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      if (error) std::rethrow_exception(error);
      return;
    }

    const std::lock_guard<std::mutex> admin(run_mutex_);
    // The batch span covers dispatch, the caller's own task work, and the
    // drain wait; every participant's "pool.task" span nests under it via
    // the captured context.
    std::optional<ScopedSpan> batch_span;
    if (metrics) batch_span.emplace("pool.batch");
    Batch batch;
    batch.task = &task;
    batch.count = count;
    batch.metrics = metrics;
    batch.span_ctx = current_span_context();
    const auto t0 = metrics ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      current_ = &batch;
      ++batch_seq_;
    }
    work_available_.notify_all();

    // The calling thread participates. It is flagged like a worker while it
    // does: a task that submits another batch to this pool would otherwise
    // self-deadlock on run_mutex_ — nested batches run inline instead,
    // exactly as they do on pool workers.
    const bool was_inside = t_inside_pool_worker;
    t_inside_pool_worker = true;
    work_on(batch);
    t_inside_pool_worker = was_inside;

    std::unique_lock<std::mutex> lock(mutex_);
    current_ = nullptr;  // late workers must not enter the drained batch
    batch_done_.wait(lock, [this] { return workers_inside_ == 0; });
    lock.unlock();
    if (metrics) {
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      MetricsRegistry& reg = MetricsRegistry::global();
      reg.add("pool.batches");
      reg.add("pool.tasks", count);
      reg.gauge("pool.threads", static_cast<double>(thread_count_));
      // Queue depth at submission: how many tasks entered the batch queue.
      reg.observe("pool.batch.tasks", static_cast<double>(count));
      reg.observe("pool.batch.wall_seconds", wall);
      if (wall > 0.0) {
        // Fraction of the pool's capacity (threads x wall) actually spent
        // executing tasks during this batch.
        const double busy =
            static_cast<double>(batch.busy_ns.load(std::memory_order_relaxed)) *
            1e-9;
        reg.observe("pool.batch.utilization",
                    busy / (wall * static_cast<double>(thread_count_)));
      }
    }
    if (batch.error) std::rethrow_exception(batch.error);
  }

 private:
  void start(std::size_t threads) {
    thread_count_ = threads == 0 ? 1 : threads;
    stop_ = false;
    workers_.reserve(thread_count_ - 1);
    for (std::size_t i = 0; i + 1 < thread_count_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_available_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
  }

  void work_on(Batch& batch) {
    // Claim the first task before opening any span so participants that
    // arrive after the batch drained record nothing.
    std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) return;
    // Restore the submitting thread's span context (no-op on the caller)
    // and cover this participant's share of the batch with one task span.
    std::optional<SpanContextScope> ctx;
    std::optional<ScopedSpan> task_span;
    if (batch.metrics) {
      ctx.emplace(batch.span_ctx);
      task_span.emplace("pool.task");
    }
    const auto t0 = batch.metrics ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
    std::size_t executed = 0;
    for (;;) {
      ++executed;
      try {
        (*batch.task)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (i < batch.error_index) {
          batch.error_index = i;
          batch.error = std::current_exception();
        }
      }
      i = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.count) break;
    }
    if (batch.metrics && executed > 0) {
      const auto busy = std::chrono::steady_clock::now() - t0;
      batch.busy_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(busy)
                  .count()),
          std::memory_order_relaxed);
      MetricsRegistry& reg = MetricsRegistry::global();
      reg.add("pool.worker_tasks", executed);
      reg.observe("pool.worker.busy_seconds",
                  std::chrono::duration<double>(busy).count());
    }
  }

  void worker_loop() {
    t_inside_pool_worker = true;
    std::uint64_t last_seq = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_available_.wait(lock, [&] {
        return stop_ || (current_ != nullptr && batch_seq_ != last_seq);
      });
      if (stop_) return;
      Batch& batch = *current_;
      last_seq = batch_seq_;
      ++workers_inside_;
      lock.unlock();
      work_on(batch);
      lock.lock();
      --workers_inside_;
      if (workers_inside_ == 0) batch_done_.notify_all();
    }
  }

  /// Serializes run()/resize() callers; one batch is in flight at a time.
  std::mutex run_mutex_;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable batch_done_;
  std::vector<std::thread> workers_;
  std::size_t thread_count_ = 1;
  bool stop_ = false;
  Batch* current_ = nullptr;
  std::uint64_t batch_seq_ = 0;
  std::size_t workers_inside_ = 0;
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl(threads)) {}

ThreadPool::~ThreadPool() { delete impl_; }

std::size_t ThreadPool::thread_count() const noexcept {
  return impl_->thread_count();
}

void ThreadPool::run(std::size_t task_count,
                     const std::function<void(std::size_t)>& task) {
  impl_->run(task_count, task);
}

void ThreadPool::resize(std::size_t threads) { impl_->resize(threads); }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  global().resize(threads == 0 ? default_thread_count() : threads);
}

std::size_t ThreadPool::global_thread_count() {
  return global().thread_count();
}

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("APPSCOPE_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace appscope::util
