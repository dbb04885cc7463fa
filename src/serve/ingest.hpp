// appscope/serve/ingest.hpp
//
// The sharded aggregation plane of appscope_serve: N shard workers, each
// owning one bounded SPSC queue and one private EventAggregates delta. The
// single router thread assigns every event to a shard by commune
// (commune % shards, so one commune's keys never split across shards),
// pushes it lock-free, and the worker folds it into its delta without any
// synchronization at all.
//
// Epochs use a barrier protocol: the router pushes a barrier message into
// every queue; each worker, on reaching it, hands off its accumulated delta
// (an O(1) swap under the handoff mutex) and continues with a zeroed delta.
// collect_epoch() blocks the router until every shard has handed off, then
// merges the deltas into the caller's rolling state in shard order. Because
// the deltas are uint64 aggregates, the merged state is bitwise-identical
// at any shard count (see serve/aggregates.hpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/event.hpp"
#include "serve/aggregates.hpp"
#include "serve/spsc_queue.hpp"

namespace appscope::serve {

class ShardedIngest {
 public:
  struct Options {
    std::size_t shards = 4;
    /// Per-shard queue capacity (rounded up to a power of two).
    std::size_t queue_capacity = 1 << 16;
  };

  ShardedIngest(std::size_t services, std::size_t communes, Options options);
  ~ShardedIngest();
  ShardedIngest(const ShardedIngest&) = delete;
  ShardedIngest& operator=(const ShardedIngest&) = delete;

  std::size_t shard_count() const noexcept { return shards_.size(); }

  std::size_t shard_of(geo::CommuneId commune) const noexcept {
    return commune % shards_.size();
  }

  /// Non-blocking delivery with a bounded spin: retries up to `spin_limit`
  /// times when the shard queue is full, then gives up. Returns false on
  /// give-up (the caller decides: block via route(), or shed via the
  /// overload sampler). `scale` multiplies the event's volumes (sampling
  /// compensation; must be >= 1).
  bool try_route(const net::ServiceEvent& event, std::uint64_t scale,
                 std::size_t spin_limit);

  /// Blocking delivery: spins (then yields) until the shard queue accepts
  /// the event — pure backpressure, never drops.
  void route(const net::ServiceEvent& event, std::uint64_t scale);

  /// Epoch barrier: every shard hands off its delta; the deltas are merged
  /// into `rolling` in shard order. Call from the router thread only; blocks
  /// until all shards have passed the barrier.
  void collect_epoch(EventAggregates& rolling);

  /// Approximate occupancy of one shard queue (metrics).
  std::size_t queue_depth(std::size_t shard) const;

  /// Events one shard worker has folded into its delta since construction
  /// (monotonic; the telemetry plane publishes it as the
  /// serve.shard.<i>.events gauge the watchdog's starvation heuristic
  /// watches).
  std::uint64_t shard_events(std::size_t shard) const;

  /// Test hook: while paused, shard `shard`'s worker stops popping its
  /// queue (events back up) without exiting. Injects exactly the wedged-
  /// worker stall the HealthWatchdog flags. Never pause across a
  /// collect_epoch() call — the barrier would wait on the paused shard.
  /// stop() clears all pauses so shutdown always completes.
  void set_shard_paused(std::size_t shard, bool paused);

  /// Total full-queue retries the router has burned (backpressure measure;
  /// router-thread accounting, read after the run).
  std::uint64_t backpressure_spins() const noexcept { return spins_; }

  /// Stops the workers (drains queues up to the stop message) and joins.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  struct Msg {
    net::ServiceEvent event;
    /// >= 1: event with volume scale; 0: control (event.flags: 1 = barrier,
    /// 2 = stop).
    std::uint64_t scale = 0;
  };
  static constexpr std::uint8_t kBarrier = 1;
  static constexpr std::uint8_t kStop = 2;

  struct Shard {
    explicit Shard(std::size_t services, std::size_t communes,
                   std::size_t queue_capacity)
        : queue(queue_capacity), handoff(services, communes) {}
    SpscQueue<Msg> queue;
    EventAggregates handoff;  // filled at a barrier, guarded by handoff_mutex_
    std::thread worker;
    /// Events applied by the worker (relaxed; read by the telemetry plane).
    std::atomic<std::uint64_t> processed{0};
    /// Test hook: worker spins without popping while set (see
    /// set_shard_paused).
    std::atomic<bool> paused{false};
  };

  void worker_loop(std::size_t shard_index);
  void push_control(std::uint8_t kind);

  std::size_t services_;
  std::size_t communes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t spins_ = 0;  // router thread only

  std::mutex handoff_mutex_;
  std::condition_variable handoff_cv_;
  std::size_t handoffs_pending_ = 0;
  bool stopped_ = false;
};

}  // namespace appscope::serve
