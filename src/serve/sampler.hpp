// appscope/serve/sampler.hpp
//
// Deterministic overload shedding for the ingest router. Under sustained
// overload (a shard queue still full after the bounded backpressure spin)
// the router stops trying to deliver every event and switches to systematic
// 1-in-k sampling: of every k consecutive events it keeps exactly one and
// scales its volumes by k, so the aggregates remain unbiased estimates of
// the full stream; the other k - 1 are dropped and counted in net.sampled.
//
// Determinism: the keep/drop decision is a pure function of the event
// sequence number, never of wall time — given the same stream and the same
// sampling engagement, the same events are kept. In live operation the
// *engagement* is load-driven (and therefore timing-dependent); tests and
// deterministic replays pin it with force_sampling(), which samples the
// whole stream from event zero.
//
// Estimator (documented contract, checked exactly by the overload property
// test). With sampling forced from event zero, the events kept are those
// whose sequence number is 0 mod k, each scaled by k. For any additive
// total T = e_0 + ... + e_(n-1) of non-negative event volumes:
//   - Unbiased over the phase: the k estimates that keeping phase
//     p = 0 .. k-1 would give sum to exactly k * T, so their mean is T.
//   - Absolute error: cut the stream into runs of k consecutive events, each
//     starting at a kept event e_first. A full run's estimate k * e_first
//     differs from the run's sum by at most (k - 1) * (max - min) over the
//     run; a last run of m < k events by at most (m - 1) * (max - min) +
//     (k - m) * e_first. |estimate - T| is at most the sum over the runs.
//   - No relative bound: keeping or dropping one heavy event moves the
//     estimate by up to (k - 1) times its volume, so on a heavy-tailed
//     stream the relative error is not bounded by any function of k, n and
//     the mean and maximum event volumes alone.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/error.hpp"

namespace appscope::serve {

class OverloadSampler {
 public:
  /// `period` is k in 1-in-k sampling (>= 2). `window` is how many events a
  /// single overload trigger keeps sampling active for; every further
  /// trigger re-arms the window, so sampling persists exactly as long as
  /// the overload does (plus one window of cooldown).
  explicit OverloadSampler(std::uint64_t period, std::uint64_t window = 65536)
      : period_(period), window_(window) {
    APPSCOPE_REQUIRE(period >= 2, "OverloadSampler: period must be >= 2");
    APPSCOPE_REQUIRE(window >= 1, "OverloadSampler: window must be >= 1");
  }

  /// Signals sustained overload: sampling engages (or re-arms) for at
  /// least the next `window` events. A trigger never shortens sampling
  /// already armed further, so a forced run stays forced.
  void trigger() noexcept {
    sampling_until_ = std::max(sampling_until_, seq_ + window_);
    ++triggers_;
  }

  /// Forces sampling on for the rest of the stream (deterministic tests and
  /// replays; equivalent to an overload that never ends).
  void force_sampling() noexcept { sampling_until_ = UINT64_MAX; }

  /// Admission decision for the next event. Returns the volume scale to
  /// apply: 0 = drop the event (counted in sampled()), k = keep it with its
  /// volumes scaled by k, 1 = keep verbatim (not sampling).
  std::uint64_t admit() noexcept {
    const std::uint64_t seq = seq_++;
    if (seq >= sampling_until_) return 1;
    if (seq % period_ != 0) {
      ++sampled_;
      return 0;
    }
    return period_;
  }

  bool sampling_active() const noexcept { return seq_ < sampling_until_; }
  std::uint64_t period() const noexcept { return period_; }
  /// Events dropped by sampling so far (the net.sampled counter's source).
  std::uint64_t sampled() const noexcept { return sampled_; }
  /// Overload triggers observed.
  std::uint64_t triggers() const noexcept { return triggers_; }

 private:
  std::uint64_t period_;
  std::uint64_t window_;
  std::uint64_t seq_ = 0;
  std::uint64_t sampling_until_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t triggers_ = 0;
};

}  // namespace appscope::serve
