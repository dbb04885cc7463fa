// appscope/util/metrics.hpp
//
// Pipeline observability: a process-wide metrics registry with counters,
// gauges and histograms, plus the RAII StageTimer used by every pipeline
// stage (generator shards, DPI classification, k-Shape, peak detection,
// spatial/urbanization analyses, thread-pool batches).
//
// Performance model — lock-free fast path via per-thread shards:
//
//   * every recording thread owns a private shard; the name -> cell lookup
//     table of a shard is touched only by its owner, so lookups take no
//     lock at all;
//   * cell values are atomics, so a scrape (snapshot) can read them while
//     the owner keeps recording; a mutex is taken only when a thread first
//     touches a metric name (cell allocation) and during scrape iteration;
//   * snapshot() merges all shards into per-name totals.
//
// Determinism model: metrics are pure observation. Recording is gated by
// MetricsRegistry::enabled() (the APPSCOPE_METRICS environment variable or
// StudyOptions::metrics); with the gate off every instrument is an inert
// no-op, and with it on no analysis result changes — instrumented and
// uninstrumented runs stay bitwise identical
// (tests/core/test_metrics_determinism.cpp asserts this).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/trace.hpp"

namespace appscope::util {

class Json;

/// Fixed power-of-two histogram layout: bucket i counts values in
/// [2^(i + kHistogramMinExp), 2^(i + 1 + kHistogramMinExp)), clamped at the
/// ends. With kHistogramMinExp = -20 the first bucket starts near 1 µs,
/// which suits wall-clock stage timings; any non-negative value lands in a
/// monotone bucket regardless of unit.
inline constexpr int kHistogramMinExp = -20;
inline constexpr std::size_t kHistogramBuckets = 40;

/// Returns the bucket index for a value (values <= 0 map to bucket 0).
std::size_t histogram_bucket(double value) noexcept;

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Point-in-time merge of every shard, keyed by metric name. std::map keeps
/// the export order stable.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds delta to a monotonic counter.
  void add(std::string_view counter, std::uint64_t delta = 1);
  /// Sets a gauge to the latest observed value (last write wins on scrape;
  /// per-thread shards each keep their own last value and the merge takes
  /// the one recorded most recently).
  void gauge(std::string_view name, double value);
  /// Records one observation into a histogram. Values must be finite and
  /// non-negative; NaN, -inf and negative values are clamped to 0.0 (the
  /// underflow bucket) and counted under the `metrics.invalid_observations`
  /// counter instead of poisoning the sum/min/max aggregates.
  void observe(std::string_view histogram, double value);

  /// Merges every shard (all threads, live or finished) into totals.
  MetricsSnapshot snapshot() const;
  /// snapshot() into a caller-owned document, reusing its map nodes: entries
  /// whose names are already present are overwritten in place, so a steady-
  /// state caller (the obs::MetricsSampler tick) allocates nothing once the
  /// metric name set has stabilized. Entries for names the registry no
  /// longer holds are reset to zero, never erased.
  void snapshot_into(MetricsSnapshot& out) const;
  /// Zeroes all recorded values; cells stay allocated so cached fast-path
  /// pointers on other threads remain valid.
  void reset();

  /// The process-wide registry every instrument records into.
  static MetricsRegistry& global();

  /// Master gate. Initialized once from the APPSCOPE_METRICS environment
  /// variable ("0"/"false"/empty mean off); flip it programmatically via
  /// set_enabled (StudyOptions::metrics does). Instruments check this
  /// before touching the registry, so a disabled run pays one relaxed
  /// atomic load per instrument.
  static bool enabled() noexcept;
  static void set_enabled(bool on) noexcept;

 private:
  struct Cell;
  struct Shard;
  friend class StageTimer;

  Cell& cell(std::string_view name, int kind);
  Shard& local_shard();

  const std::uint64_t id_;  // never-reused key for thread-local shard caches
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// RAII wall-clock timer for one pipeline stage. It opens a trace span named
/// <name> at construction, and on stop (or destruction) closes it and
/// records, under "stage.<name>.":
///   .wall_seconds  histogram of the stage's elapsed wall time
///   .calls         counter of completed stage executions
///   .items         counter of processed items (if add_items was called)
///   .bytes         counter of emitted bytes (if add_bytes was called)
/// Inert when metrics are disabled at construction time. add_items/add_bytes
/// are atomic, so pool workers can report into the caller's timer.
class StageTimer {
 public:
  explicit StageTimer(std::string stage);
  ~StageTimer();
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void add_items(std::uint64_t n) noexcept {
    if (active_) items_.fetch_add(n, std::memory_order_relaxed);
  }
  void add_bytes(std::uint64_t n) noexcept {
    if (active_) bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Records and closes the span now instead of at destruction; further
  /// calls are no-ops.
  void stop();
  bool active() const noexcept { return active_; }

 private:
  bool active_;
  std::string stage_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> items_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::optional<ScopedSpan> span_;
};

// ---------------------------------------------------------------------------
// Export: the machine-readable metrics.json / metrics.csv feed.

/// Serializes a snapshot (plus the recorded trace spans, see util/trace.hpp)
/// into the stable metrics document: {"schema": "appscope.metrics/1",
/// "counters": {...}, "gauges": {...}, "histograms": {...}, "spans": [...]}.
Json metrics_to_json(const MetricsSnapshot& snapshot);

/// Parses a document produced by metrics_to_json back into a snapshot
/// (ignores the spans section). Throws InputError on schema mismatch.
MetricsSnapshot metrics_from_json(const Json& doc);

/// One CSV row per metric: kind,name,value,count,sum,min,max.
std::string metrics_to_csv(const MetricsSnapshot& snapshot);

/// Snapshot the global registry + global trace recorder and write the JSON
/// document to `path`. Throws InputError if the file cannot be written.
void write_metrics_json(const std::string& path);

/// APPSCOPE_METRICS_PATH if set, else "metrics.json".
std::string metrics_output_path();

/// Registers an atexit hook that writes metrics_output_path() when metrics
/// are enabled at process exit. Idempotent; used by the bench binaries so
/// `APPSCOPE_METRICS=1 build/bench/...` always leaves a metrics.json behind.
void write_metrics_at_exit();

/// Best-effort, never-throwing flush of the global registry (plus spans) to
/// metrics_output_path(). Returns false when metrics are disabled or the
/// write failed. NOT strictly async-signal-safe (it allocates and takes the
/// registry locks), but safe to call from a last-gasp signal handler on the
/// way to _exit: worst case the write fails and the handler still exits.
bool flush_metrics_best_effort() noexcept;

/// Installs SIGTERM/SIGINT handlers that flush_metrics_best_effort() and
/// _exit(128 + sig) — for binaries with no graceful drain path of their own
/// (appscope_query --follow), so an interrupted run still leaves its
/// metrics.json behind. Idempotent. Binaries that drain on SIGTERM
/// (appscope_serve) keep their own handler and escalate to this flush on
/// the second signal instead.
void install_metrics_signal_flush();

// ---------------------------------------------------------------------------
// Interval diffing: the live telemetry plane (src/obs) samples the registry
// periodically and works on per-interval deltas rather than process totals.

/// Upper bound (exclusive) of power-of-two histogram bucket `index`, i.e.
/// 2^(index + 1 + kHistogramMinExp). The last bucket is clamped and has no
/// finite upper bound (render it as +Inf).
double histogram_bucket_upper_bound(std::size_t index) noexcept;

/// Nearest-rank quantile (q in [0, 1]) of one histogram, resolved to the
/// containing bucket's upper bound; 0.0 for an empty histogram. Used by the
/// sampler's p99 series and the watchdog's seal-latency SLO check.
double histogram_quantile(const HistogramSnapshot& h, double q) noexcept;

}  // namespace appscope::util
