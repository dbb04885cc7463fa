// appscope/obs/sampler.hpp
//
// MetricsSampler: the periodic heart of the live telemetry plane. A single
// background thread snapshots the process-wide MetricsRegistry on a fixed
// cadence (default 1 s), diffs against the previous snapshot in place and
// retains the derived series in fixed-size SampleRing buffers:
//
//   counter    -> per-second rate of the interval delta, plus the total;
//   gauge      -> the sampled value;
//   histogram  -> per-second observation rate, plus the interval p99
//                 (resolved to the power-of-two bucket upper bound).
//
// Steady-state ticks are allocation-free: the registry snapshot lands in a
// reused document (MetricsRegistry::snapshot_into) and the rings are fixed
// arrays; only the first sighting of a new metric name allocates its
// Series entry.
//
// Determinism contract (DESIGN.md §4k): the sampler is a pure observer. It
// reads the registry and writes obs.sampler.* meta-metrics back into it,
// but never feeds anything into an analysis path — a run with the sampler
// attached seals bitwise-identical snapshots (ParallelObs tests).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/ring.hpp"
#include "util/metrics.hpp"

namespace appscope::obs {

enum class SeriesKind { kCounterRate, kGauge, kHistogramRate };

/// Point-in-time copy of one retained series, handed to the watchdog and
/// the /statusz renderer under the sampler mutex.
struct SeriesSnapshot {
  std::string name;
  SeriesKind kind = SeriesKind::kGauge;
  /// Rate (counters/histograms, per second) or value (gauges) ring.
  SampleRing ring;
  /// Histogram-only: interval p99 ring (seconds for *_seconds histograms).
  SampleRing p99;
  /// Latest cumulative total (counter value / histogram count); 0 for
  /// gauges.
  std::uint64_t total = 0;
};

struct SamplerOptions {
  std::chrono::milliseconds interval{1000};
};

class MetricsSampler {
 public:
  explicit MetricsSampler(SamplerOptions options = {});
  ~MetricsSampler();
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Spawns the sampling thread. Idempotent.
  void start();
  /// Stops and joins the thread. Idempotent; the destructor calls it.
  void stop();

  /// One synchronous tick: snapshot, diff, retain. The background thread
  /// calls this on its cadence; tests call it directly for deterministic
  /// series. `dt_seconds` overrides the measured inter-tick wall time
  /// (<= 0 uses the wall clock).
  void sample_once(double dt_seconds = 0.0);

  /// Registers a hook run after every tick while the sampler thread holds
  /// no locks — the TelemetryPlane wires the HealthWatchdog here. Set
  /// before start().
  void set_on_sample(std::function<void()> hook);

  /// Copies of every retained series, sorted by name.
  std::vector<SeriesSnapshot> series() const;
  /// Copy of one series by name; false when the name is unknown.
  bool series(const std::string& name, SeriesSnapshot& out) const;

  std::uint64_t samples() const;
  double uptime_seconds() const;
  std::chrono::milliseconds interval() const noexcept { return options_.interval; }

 private:
  struct Series {
    SeriesKind kind = SeriesKind::kGauge;
    SampleRing ring;
    SampleRing p99;
    std::uint64_t total = 0;
  };

  void thread_main();

  const SamplerOptions options_;
  const std::chrono::steady_clock::time_point start_time_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::thread thread_;
  std::function<void()> on_sample_;

  // Tick state (sampler thread / sample_once callers only, under mutex_).
  util::MetricsSnapshot prev_;
  util::MetricsSnapshot cur_;
  bool have_prev_ = false;
  std::chrono::steady_clock::time_point last_tick_;
  std::uint64_t samples_ = 0;
  std::map<std::string, Series> series_;
};

}  // namespace appscope::obs
