#include "obs/sampler.hpp"

#include <utility>

namespace appscope::obs {

using Clock = std::chrono::steady_clock;

MetricsSampler::MetricsSampler(SamplerOptions options)
    : options_(options), start_time_(Clock::now()), last_tick_(start_time_) {}

MetricsSampler::~MetricsSampler() { stop(); }

void MetricsSampler::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] { thread_main(); });
}

void MetricsSampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void MetricsSampler::set_on_sample(std::function<void()> hook) {
  const std::lock_guard<std::mutex> lock(mutex_);
  on_sample_ = std::move(hook);
}

void MetricsSampler::thread_main() {
  for (;;) {
    std::function<void()> hook;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, options_.interval,
                   [this] { return stop_requested_; });
      if (stop_requested_) return;
      hook = on_sample_;
    }
    sample_once();
    if (hook) hook();
  }
}

void MetricsSampler::sample_once(double dt_seconds) {
  const Clock::time_point now = Clock::now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    util::MetricsRegistry::global().snapshot_into(cur_);
    double dt = dt_seconds > 0.0
                    ? dt_seconds
                    : std::chrono::duration<double>(
                          now - (have_prev_ ? last_tick_ : start_time_))
                          .count();
    if (dt <= 0.0) dt = 1e-9;  // same-instant ticks (tests): avoid inf rates

    // Deltas are computed inline against prev_ so the tick allocates
    // nothing once every name has its Series entry.
    for (const auto& [name, value] : cur_.counters) {
      Series& s = series_[name];
      s.kind = SeriesKind::kCounterRate;
      std::uint64_t before = 0;
      if (have_prev_) {
        const auto it = prev_.counters.find(name);
        if (it != prev_.counters.end()) before = it->second;
      }
      const std::uint64_t delta = value >= before ? value - before : value;
      s.ring.push(static_cast<double>(delta) / dt);
      s.total = value;
    }
    for (const auto& [name, value] : cur_.gauges) {
      Series& s = series_[name];
      s.kind = SeriesKind::kGauge;
      s.ring.push(value);
    }
    for (const auto& [name, h] : cur_.histograms) {
      Series& s = series_[name];
      s.kind = SeriesKind::kHistogramRate;
      const util::HistogramSnapshot* before = nullptr;
      if (have_prev_) {
        const auto it = prev_.histograms.find(name);
        if (it != prev_.histograms.end()) before = &it->second;
      }
      util::HistogramSnapshot interval;  // stack-local, no allocation
      interval.max = h.max;
      interval.count =
          before && h.count >= before->count ? h.count - before->count : h.count;
      for (std::size_t b = 0; b < util::kHistogramBuckets; ++b) {
        const std::uint64_t prev_bucket = before ? before->buckets[b] : 0;
        interval.buckets[b] = h.buckets[b] >= prev_bucket
                                  ? h.buckets[b] - prev_bucket
                                  : h.buckets[b];
      }
      s.ring.push(static_cast<double>(interval.count) / dt);
      s.p99.push(util::histogram_quantile(interval, 0.99));
      s.total = h.count;
    }

    std::swap(prev_, cur_);
    have_prev_ = true;
    last_tick_ = now;
    ++samples_;
  }

  // Meta-telemetry about the sampler itself, recorded outside the sampler
  // mutex (registry locks are independent; keep the ordering one-way).
  if (util::MetricsRegistry::enabled()) {
    auto& registry = util::MetricsRegistry::global();
    registry.gauge("obs.sampler.samples", static_cast<double>(samples()));
    registry.observe("obs.sampler.tick_lag_seconds",
                     std::chrono::duration<double>(Clock::now() - now).count());
  }
}

std::vector<SeriesSnapshot> MetricsSampler::series() const {
  std::vector<SeriesSnapshot> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    SeriesSnapshot snap;
    snap.name = name;
    snap.kind = s.kind;
    snap.ring = s.ring;
    snap.p99 = s.p99;
    snap.total = s.total;
    out.push_back(std::move(snap));
  }
  return out;
}

bool MetricsSampler::series(const std::string& name,
                            SeriesSnapshot& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(name);
  if (it == series_.end()) return false;
  out.name = name;
  out.kind = it->second.kind;
  out.ring = it->second.ring;
  out.p99 = it->second.p99;
  out.total = it->second.total;
  return true;
}

std::uint64_t MetricsSampler::samples() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

double MetricsSampler::uptime_seconds() const {
  return std::chrono::duration<double>(Clock::now() - start_time_).count();
}

}  // namespace appscope::obs
