// appscope/serve/spsc_queue.hpp
//
// Bounded lock-free single-producer/single-consumer ring queue — the ingest
// path between the daemon's router thread and each shard worker. One
// producer thread calls try_push, one consumer thread calls try_pop; no
// other concurrency is allowed (the router is the single producer of every
// shard queue, which is what keeps the queue SPSC and the ingest hot path
// free of locks and CAS loops).
//
// The implementation is the classic cached-index ring: head (consumer) and
// tail (producer) live on their own cache lines, and each side caches the
// other's index so the common case touches one shared atomic, not two.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <new>
#include <vector>

#include "util/error.hpp"

namespace appscope::serve {

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two (masked indexing); the queue
  /// holds up to `capacity` elements. A capacity above the largest power of
  /// two has nothing to round up to, and a ring that cannot be allocated
  /// cannot be built; both throw PreconditionError.
  explicit SpscQueue(std::size_t capacity) {
    APPSCOPE_REQUIRE(capacity > 0, "SpscQueue: capacity must be positive");
    constexpr std::size_t kMaxCapacity =
        std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
    APPSCOPE_REQUIRE(capacity <= kMaxCapacity,
                     "SpscQueue: capacity exceeds the largest power of two");
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    APPSCOPE_REQUIRE(cap <= ring_.max_size(),
                     "SpscQueue: capacity too large to allocate");
    try {
      ring_.resize(cap);
    } catch (const std::bad_alloc&) {
      throw util::PreconditionError("SpscQueue: cannot allocate the ring");
    }
    mask_ = cap - 1;
  }

  /// Producer side. Returns false when the queue is full.
  bool try_push(const T& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    ring_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the queue is empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = ring_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy (either side may be mid-operation); exact when
  /// both sides are quiescent. Safe to call from any thread.
  std::size_t size() const noexcept {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  std::vector<T> ring_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer-owned
  alignas(64) std::size_t tail_cache_ = 0;        // consumer's view of tail_
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer-owned
  alignas(64) std::size_t head_cache_ = 0;        // producer's view of head_
};

}  // namespace appscope::serve
