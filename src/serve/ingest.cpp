#include "serve/ingest.hpp"

#include <chrono>

#include "util/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace appscope::serve {
namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// Spin-then-yield backoff for queue-full / queue-empty waits: cheap pauses
/// first (the other side is usually a few cache misses away), then yield the
/// core so a paced or oversubscribed run does not burn it.
inline void backoff(std::size_t attempt) noexcept {
  if (attempt < 64) {
    cpu_relax();
  } else {
    std::this_thread::yield();
  }
}

}  // namespace

ShardedIngest::ShardedIngest(std::size_t services, std::size_t communes,
                             Options options)
    : services_(services), communes_(communes) {
  APPSCOPE_REQUIRE(options.shards >= 1, "ShardedIngest: need >= 1 shard");
  APPSCOPE_REQUIRE(options.queue_capacity >= 2,
                   "ShardedIngest: queue capacity too small");
  shards_.reserve(options.shards);
  for (std::size_t i = 0; i < options.shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(services, communes, options.queue_capacity));
  }
  for (std::size_t i = 0; i < options.shards; ++i) {
    shards_[i]->worker = std::thread([this, i] { worker_loop(i); });
  }
}

ShardedIngest::~ShardedIngest() { stop(); }

void ShardedIngest::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  EventAggregates delta(services_, communes_);
  Msg msg;
  std::size_t idle = 0;
  for (;;) {
    if (shard.paused.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (!shard.queue.try_pop(msg)) {
      backoff(idle++);
      continue;
    }
    idle = 0;
    if (msg.scale != 0) {
      delta.apply(msg.event, msg.scale);
      shard.processed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (msg.event.flags == kBarrier) {
      {
        const std::lock_guard<std::mutex> lock(handoff_mutex_);
        // handoff holds the previous epoch's already-merged (and reset)
        // state, so the swap hands the fresh delta out and takes a zeroed
        // aggregate back — no allocation on the barrier path.
        std::swap(shard.handoff, delta);
        --handoffs_pending_;
      }
      handoff_cv_.notify_one();
      continue;
    }
    break;  // kStop
  }
}

bool ShardedIngest::try_route(const net::ServiceEvent& event,
                              std::uint64_t scale, std::size_t spin_limit) {
  APPSCOPE_DCHECK(scale >= 1, "ShardedIngest: events must carry scale >= 1");
  SpscQueue<Msg>& queue = shards_[shard_of(event.commune)]->queue;
  const Msg msg{event, scale};
  for (std::size_t attempt = 0;; ++attempt) {
    if (queue.try_push(msg)) return true;
    if (attempt >= spin_limit) return false;
    ++spins_;
    backoff(attempt);
  }
}

void ShardedIngest::route(const net::ServiceEvent& event, std::uint64_t scale) {
  APPSCOPE_DCHECK(scale >= 1, "ShardedIngest: events must carry scale >= 1");
  SpscQueue<Msg>& queue = shards_[shard_of(event.commune)]->queue;
  const Msg msg{event, scale};
  for (std::size_t attempt = 0; !queue.try_push(msg); ++attempt) {
    ++spins_;
    backoff(attempt);
  }
}

void ShardedIngest::push_control(std::uint8_t kind) {
  Msg msg;
  msg.scale = 0;
  msg.event.flags = kind;
  for (auto& shard : shards_) {
    for (std::size_t attempt = 0; !shard->queue.try_push(msg); ++attempt) {
      backoff(attempt);
    }
  }
}

void ShardedIngest::collect_epoch(EventAggregates& rolling) {
  APPSCOPE_REQUIRE(!stopped_, "ShardedIngest: collect_epoch after stop");
  {
    const std::lock_guard<std::mutex> lock(handoff_mutex_);
    handoffs_pending_ = shards_.size();
  }
  push_control(kBarrier);
  std::unique_lock<std::mutex> lock(handoff_mutex_);
  handoff_cv_.wait(lock, [this] { return handoffs_pending_ == 0; });
  // Shard-order merge. Order is irrelevant for the uint64 sums (commutative)
  // but kept fixed anyway so the protocol has one canonical behavior.
  for (auto& shard : shards_) {
    rolling.merge(shard->handoff);
    shard->handoff.reset();
  }
}

std::size_t ShardedIngest::queue_depth(std::size_t shard) const {
  APPSCOPE_REQUIRE(shard < shards_.size(), "ShardedIngest: bad shard index");
  return shards_[shard]->queue.size();
}

std::uint64_t ShardedIngest::shard_events(std::size_t shard) const {
  APPSCOPE_REQUIRE(shard < shards_.size(), "ShardedIngest: bad shard index");
  return shards_[shard]->processed.load(std::memory_order_relaxed);
}

void ShardedIngest::set_shard_paused(std::size_t shard, bool paused) {
  APPSCOPE_REQUIRE(shard < shards_.size(), "ShardedIngest: bad shard index");
  shards_[shard]->paused.store(paused, std::memory_order_release);
}

void ShardedIngest::stop() {
  if (stopped_) return;
  stopped_ = true;
  // Unfreeze any test-paused shard so the stop message is consumed.
  for (auto& shard : shards_) {
    shard->paused.store(false, std::memory_order_release);
  }
  push_control(kStop);
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

}  // namespace appscope::serve
