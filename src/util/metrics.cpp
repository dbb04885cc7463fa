#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <unordered_map>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/mem_stats.hpp"
#include "util/trace.hpp"

namespace appscope::util {

namespace {

enum CellKind : int { kCounterCell = 0, kGaugeCell = 1, kHistogramCell = 2 };

bool env_enabled() {
  const char* env = std::getenv("APPSCOPE_METRICS");
  if (env == nullptr) return false;
  const std::string_view v(env);
  return !v.empty() && v != "0" && v != "false" && v != "off";
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_enabled()};
  return flag;
}

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Monotone stamp ordering gauge writes across shards: the merge keeps the
/// most recently written value.
std::atomic<std::uint64_t> g_gauge_clock{0};

void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value < cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value > cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

struct SvHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
struct SvEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

/// Thread-local cache of (registry id -> shard); ids are never reused, so
/// stale entries for destroyed registries can never be matched.
struct ShardRef {
  std::uint64_t registry_id;
  void* shard;
};
thread_local std::vector<ShardRef> t_metric_shards;

}  // namespace

std::size_t histogram_bucket(double value) noexcept {
  if (!(value > 0.0)) return 0;
  const int idx = std::ilogb(value) - kHistogramMinExp;
  if (idx < 0) return 0;
  if (idx >= static_cast<int>(kHistogramBuckets)) return kHistogramBuckets - 1;
  return static_cast<std::size_t>(idx);
}

/// One named metric slot. All values are atomics so the owner thread can
/// keep recording while a scrape reads; `active` distinguishes live cells
/// from reset ones.
struct MetricsRegistry::Cell {
  std::string name;
  int kind = kCounterCell;
  std::atomic<bool> active{false};
  /// Counter value, or histogram observation count.
  std::atomic<std::uint64_t> count{0};
  /// Gauge value, or histogram sum.
  std::atomic<double> value{0.0};
  std::atomic<std::uint64_t> gauge_stamp{0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

/// Per-thread slice of the registry. `index` is touched only by the owning
/// thread (lock-free lookups); `mutex` serializes cell allocation against
/// scrape/reset iteration. std::deque keeps cell addresses stable, so
/// cached pointers and the lock-free fast path survive growth.
/// Cache-line aligned so two threads' shards never share a line: the hot
/// path is one atomic RMW per record, and cross-shard false sharing would
/// put that RMW in contention even though the shards are logically private.
struct alignas(64) MetricsRegistry::Shard {
  std::mutex mutex;
  std::deque<Cell> cells;
  std::unordered_map<std::string, Cell*, SvHash, SvEq> index;
};

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  for (const ShardRef& ref : t_metric_shards) {
    if (ref.registry_id == id_) return *static_cast<Shard*>(ref.shard);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  t_metric_shards.push_back({id_, shard});
  return *shard;
}

MetricsRegistry::Cell& MetricsRegistry::cell(std::string_view name, int kind) {
  Shard& shard = local_shard();
  const auto it = shard.index.find(name);
  if (it != shard.index.end()) {
    APPSCOPE_REQUIRE(it->second->kind == kind,
                     "MetricsRegistry: metric kind mismatch: " + std::string(name));
    return *it->second;
  }
  const std::lock_guard<std::mutex> lock(shard.mutex);
  Cell& c = shard.cells.emplace_back();
  c.name = std::string(name);
  c.kind = kind;
  shard.index.emplace(c.name, &c);
  return c;
}

void MetricsRegistry::add(std::string_view counter, std::uint64_t delta) {
  Cell& c = cell(counter, kCounterCell);
  c.count.fetch_add(delta, std::memory_order_relaxed);
  c.active.store(true, std::memory_order_relaxed);
}

void MetricsRegistry::gauge(std::string_view name, double value) {
  Cell& c = cell(name, kGaugeCell);
  c.value.store(value, std::memory_order_relaxed);
  c.gauge_stamp.store(g_gauge_clock.fetch_add(1, std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  c.active.store(true, std::memory_order_relaxed);
}

void MetricsRegistry::observe(std::string_view histogram, double value) {
  // Harden against caller bugs: NaN or negative observations would poison
  // the running sum (NaN is sticky through atomic_add) and min/max. Clamp
  // them into the underflow bucket and count the incident — a watchdog can
  // alert on metrics.invalid_observations without the series going bad.
  if (!(value >= 0.0) || !std::isfinite(value)) {
    add("metrics.invalid_observations");
    value = 0.0;
  }
  Cell& c = cell(histogram, kHistogramCell);
  c.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(c.value, value);
  atomic_min(c.min, value);
  atomic_max(c.max, value);
  c.buckets[histogram_bucket(value)].fetch_add(1, std::memory_order_relaxed);
  c.active.store(true, std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  snapshot_into(out);
  return out;
}

void MetricsRegistry::snapshot_into(MetricsSnapshot& out) const {
  // Zero the existing entries instead of clearing the maps: in the steady
  // state (same metric name set every tick) the merge below lands on the
  // nodes already allocated, so a periodic sampler ticks allocation-free.
  for (auto& [name, value] : out.counters) value = 0;
  for (auto& [name, value] : out.gauges) value = 0.0;
  for (auto& [name, h] : out.histograms) h = HistogramSnapshot{};
  std::map<std::string, std::uint64_t> gauge_stamps;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    for (const Cell& c : shard->cells) {
      if (!c.active.load(std::memory_order_relaxed)) continue;
      switch (c.kind) {
        case kCounterCell:
          out.counters[c.name] += c.count.load(std::memory_order_relaxed);
          break;
        case kGaugeCell: {
          const std::uint64_t stamp =
              c.gauge_stamp.load(std::memory_order_relaxed);
          auto [it, inserted] = gauge_stamps.try_emplace(c.name, stamp);
          if (inserted || stamp >= it->second) {
            it->second = stamp;
            out.gauges[c.name] = c.value.load(std::memory_order_relaxed);
          }
          break;
        }
        case kHistogramCell: {
          HistogramSnapshot& h = out.histograms[c.name];
          const bool first = h.count == 0;
          h.count += c.count.load(std::memory_order_relaxed);
          h.sum += c.value.load(std::memory_order_relaxed);
          const double lo = c.min.load(std::memory_order_relaxed);
          const double hi = c.max.load(std::memory_order_relaxed);
          h.min = first ? lo : std::min(h.min, lo);
          h.max = first ? hi : std::max(h.max, hi);
          for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
            h.buckets[b] += c.buckets[b].load(std::memory_order_relaxed);
          }
          break;
        }
      }
    }
  }
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    for (Cell& c : shard->cells) {
      c.active.store(false, std::memory_order_relaxed);
      c.count.store(0, std::memory_order_relaxed);
      c.value.store(0.0, std::memory_order_relaxed);
      c.gauge_stamp.store(0, std::memory_order_relaxed);
      c.min.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      c.max.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      for (auto& b : c.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally immortal: worker threads and atexit exporters may still
  // record or scrape during static destruction.
  static auto* registry = new MetricsRegistry();
  return *registry;
}

bool MetricsRegistry::enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

void MetricsRegistry::set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// StageTimer

StageTimer::StageTimer(std::string stage)
    : active_(MetricsRegistry::enabled()), stage_(std::move(stage)) {
  if (!active_) return;
  span_.emplace(stage_);
  start_ = std::chrono::steady_clock::now();
}

StageTimer::~StageTimer() { stop(); }

void StageTimer::stop() {
  if (!active_) return;
  active_ = false;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::string prefix = "stage." + stage_;
  reg.observe(prefix + ".wall_seconds", wall);
  reg.add(prefix + ".calls", 1);
  const std::uint64_t items = items_.load(std::memory_order_relaxed);
  if (items > 0) reg.add(prefix + ".items", items);
  const std::uint64_t bytes = bytes_.load(std::memory_order_relaxed);
  if (bytes > 0) reg.add(prefix + ".bytes", bytes);
  span_.reset();
}

// ---------------------------------------------------------------------------
// Export

namespace {

constexpr std::string_view kSchema = "appscope.metrics/1";

Json histogram_to_json(const HistogramSnapshot& h) {
  Json::Object obj;
  obj.emplace("count", Json(h.count));
  obj.emplace("sum", Json(h.sum));
  obj.emplace("min", Json(h.min));
  obj.emplace("max", Json(h.max));
  obj.emplace("mean", Json(h.mean()));
  // Sparse bucket map (index -> count); most of the 40 buckets are empty.
  Json::Object buckets;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (h.buckets[b] > 0) buckets.emplace(std::to_string(b), Json(h.buckets[b]));
  }
  obj.emplace("buckets", Json(std::move(buckets)));
  return Json(std::move(obj));
}

}  // namespace

Json metrics_to_json(const MetricsSnapshot& snapshot) {
  Json::Object doc;
  doc.emplace("schema", Json(std::string(kSchema)));
  Json::Object counters;
  for (const auto& [name, value] : snapshot.counters) {
    counters.emplace(name, Json(value));
  }
  doc.emplace("counters", Json(std::move(counters)));
  Json::Object gauges;
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.emplace(name, Json(value));
  }
  doc.emplace("gauges", Json(std::move(gauges)));
  Json::Object histograms;
  for (const auto& [name, h] : snapshot.histograms) {
    histograms.emplace(name, histogram_to_json(h));
  }
  doc.emplace("histograms", Json(std::move(histograms)));
  return Json(std::move(doc));
}

void write_metrics_json(const std::string& path) {
  Json doc = metrics_to_json(MetricsRegistry::global().snapshot());
  const TraceRecorder& recorder = TraceRecorder::global();
  Json::Array spans;
  for (const TraceEvent& event : recorder.snapshot()) {
    Json::Object span;
    span.emplace("name", Json(event.name));
    span.emplace("span_id", Json(event.span_id));
    span.emplace("parent_id", Json(event.parent_id));
    span.emplace("thread", Json(static_cast<std::uint64_t>(event.thread)));
    span.emplace("depth", Json(static_cast<std::uint64_t>(event.depth)));
    span.emplace("start_ns", Json(event.start_ns));
    span.emplace("duration_ns", Json(event.duration_ns));
    spans.emplace_back(std::move(span));
  }
  // The per-thread buffer cap must never be silent: the dropped count rides
  // along as a first-class counter (and the legacy top-level key).
  Json::Object& counters = doc.as_object()["counters"].as_object();
  counters["trace.dropped_events"] = Json(recorder.dropped_events());
  if (const std::uint64_t peak = peak_rss_bytes(); peak > 0) {
    doc.as_object()["gauges"].as_object()["mem.peak_rss_bytes"] = Json(peak);
  }
  doc.as_object().emplace("spans", Json(std::move(spans)));
  doc.as_object().emplace("spans_dropped", Json(recorder.dropped_events()));

  std::ofstream file(path);
  APPSCOPE_REQUIRE(file.good(),
                   "write_metrics_json: cannot open for writing: " + path);
  file << doc.dump(2) << '\n';
  file.close();
  APPSCOPE_REQUIRE(file.good(), "write_metrics_json: write failed: " + path);
}

std::string metrics_output_path() {
  if (const char* env = std::getenv("APPSCOPE_METRICS_PATH")) {
    if (*env != '\0') return env;
  }
  return "metrics.json";
}

bool flush_metrics_best_effort() noexcept {
  if (!MetricsRegistry::enabled()) return false;
  try {
    write_metrics_json(metrics_output_path());
    return true;
  } catch (...) {
    return false;
  }
}

namespace {

extern "C" void metrics_flush_signal_handler(int sig) {
  // Best effort by design: write_metrics_json allocates, which is not
  // async-signal-safe — but this handler only runs on the way to _exit, so
  // the worst case (a deadlock would require the signal to land inside the
  // allocator or the registry mutex) is no metrics file, the same outcome
  // as not trying. The upside — SIGTERM'd runs keeping their telemetry —
  // is worth the attempt.
  flush_metrics_best_effort();
  std::_Exit(128 + sig);
}

}  // namespace

void install_metrics_signal_flush() {
  static const bool installed = [] {
    std::signal(SIGTERM, metrics_flush_signal_handler);
    std::signal(SIGINT, metrics_flush_signal_handler);
    return true;
  }();
  (void)installed;
}

// ---------------------------------------------------------------------------
// Interval diffing

double histogram_bucket_upper_bound(std::size_t index) noexcept {
  return std::ldexp(1.0, static_cast<int>(index) + 1 + kHistogramMinExp);
}

double histogram_quantile(const HistogramSnapshot& h, double q) noexcept {
  if (h.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank over the cumulative bucket counts; the answer is the
  // containing bucket's upper bound (clamped to the recorded max for the
  // last, unbounded bucket).
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(h.count)));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    cumulative += h.buckets[b];
    if (cumulative >= rank && cumulative > 0) {
      if (b + 1 == kHistogramBuckets) return h.max;
      return std::min(histogram_bucket_upper_bound(b), h.max);
    }
  }
  return h.max;
}

void write_metrics_at_exit() {
  static const bool registered = [] {
    std::atexit([] {
      if (!MetricsRegistry::enabled()) return;
      try {
        write_metrics_json(metrics_output_path());
      } catch (...) {
        // Exporting observability data must never turn a successful run
        // into a failing exit.
      }
    });
    return true;
  }();
  (void)registered;
}

}  // namespace appscope::util
