#include "serve/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "geo/territory.hpp"
#include "net/types.hpp"
#include "serve/epoch.hpp"
#include "serve/ingest.hpp"
#include "serve/online.hpp"
#include "serve/sampler.hpp"
#include "synth/replay.hpp"
#include "ts/calendar.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace appscope::serve {

namespace {
/// Router batch: events routed between pacing / metrics / stop-flag checks.
constexpr std::size_t kBatchEvents = 4096;

/// `config`, checked before any of the world is built or staged.
ServeConfig checked(ServeConfig config) {
  APPSCOPE_REQUIRE(config.shard_count >= 1,
                   "IngestDaemon: shard_count must be >= 1");
  APPSCOPE_REQUIRE(
      config.epoch_seconds > 0 &&
          config.epoch_seconds % net::kSecondsPerHour == 0,
      "IngestDaemon: epoch_seconds must be a positive whole number of hours");
  APPSCOPE_REQUIRE(std::isfinite(config.target_events_per_second) &&
                       config.target_events_per_second >= 0.0,
                   "IngestDaemon: target_events_per_second must be finite "
                   "and >= 0");
  APPSCOPE_REQUIRE(std::isfinite(config.duration_seconds) &&
                       config.duration_seconds >= 0.0,
                   "IngestDaemon: duration_seconds must be finite and >= 0");
  APPSCOPE_REQUIRE(config.weeks >= 1 || config.duration_seconds > 0.0,
                   "IngestDaemon: nothing to replay");
  return config;
}

}  // namespace

struct IngestDaemon::Impl {
  explicit Impl(ServeConfig cfg)
      : config(checked(std::move(cfg))),
        territory(geo::build_synthetic_country(config.scenario.country)),
        subscribers(territory, config.scenario.population),
        catalog(workload::ServiceCatalog::paper_services()),
        replay(territory, subscribers, catalog, config.scenario,
               config.events_per_cell) {}

  ServeConfig config;
  geo::Territory territory;
  workload::SubscriberBase subscribers;
  workload::ServiceCatalog catalog;
  synth::EventReplaySource replay;
  bool ran = false;
};

IngestDaemon::IngestDaemon(ServeConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

IngestDaemon::~IngestDaemon() = default;

std::size_t IngestDaemon::week_event_count() const noexcept {
  return impl_->replay.week_event_count();
}

ServeStats IngestDaemon::run() {
  APPSCOPE_REQUIRE(!impl_->ran, "IngestDaemon::run: already ran");
  impl_->ran = true;

  util::ScopedSpan span("serve.run");
  const ServeConfig& config = impl_->config;
  const std::size_t services = impl_->catalog.size();
  const std::size_t communes = impl_->territory.size();
  const bool metrics_on = util::MetricsRegistry::enabled();
  auto& registry = util::MetricsRegistry::global();
  if (metrics_on) {
    // Materialize the counters the soak validator asserts on, so they are
    // present in the metrics JSON even when they stay zero.
    registry.add("net.ingested", 0);
    registry.add("net.sampled", 0);
    registry.add("serve.overload.triggers", 0);
  }

  EventAggregates rolling(services, communes);
  ShardedIngest ingest(services, communes,
                       {config.shard_count, config.queue_capacity});
  OverloadSampler sampler(config.sample_period, config.sample_window);
  if (config.force_sampling) sampler.force_sampling();
  synth::RatePacer pacer(config.target_events_per_second);

  std::optional<BackgroundSealer> sealer;
  if (!config.snapshot_dir.empty()) {
    sealer.emplace(EpochSealer(config.snapshot_dir, config.scenario,
                               impl_->territory, impl_->subscribers,
                               impl_->catalog),
                   services, communes);
  }
  OnlinePeakTracker peaks(services);
  ZipfRankTracker zipf(services);

  ServeStats stats;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto deadline =
      config.duration_seconds > 0.0
          ? wall_start + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 config.duration_seconds))
          : std::chrono::steady_clock::time_point::max();
  const bool run_forever = config.duration_seconds > 0.0;

  std::uint64_t sampled_reported = 0;  // net.sampled already flushed
  std::uint64_t ingested_reported = 0;
  std::uint64_t events_since_seal = 0;
  std::uint64_t hours_replayed = 0;
  bool stopping = false;

  // Per-shard gauge names, built once so the flush path never allocates.
  std::vector<std::string> shard_event_gauges;
  if (metrics_on) {
    shard_event_gauges.reserve(ingest.shard_count());
    for (std::size_t s = 0; s < ingest.shard_count(); ++s) {
      shard_event_gauges.push_back("serve.shard." + std::to_string(s) +
                                   ".events");
    }
  }

  // Enqueue-to-seal latency: one steady-clock mark per routed batch (a
  // per-event stamp would dominate the hot path), observed when the epoch
  // that drained those events is published. The marks travel with the seal
  // job; submit() hands back the sealer's drained vector, so the two
  // vectors trade places and keep their capacity. Bounded: marks beyond the
  // cap are dropped, which under-samples long epochs but never grows.
  constexpr std::size_t kMaxEnqueueMarks = 4096;
  std::vector<SteadyTime> enqueue_marks;
  if (metrics_on) enqueue_marks.reserve(kMaxEnqueueMarks);

  const auto should_stop = [&]() {
    if (config.stop_flag != nullptr &&
        config.stop_flag->load(std::memory_order_relaxed)) {
      return true;
    }
    return run_forever && std::chrono::steady_clock::now() >= deadline;
  };

  const auto flush_batch_metrics = [&](std::uint64_t batch) {
    pacer.await(batch);
    if (!metrics_on) return;
    registry.add("net.ingested", stats.ingested - ingested_reported);
    registry.add("net.sampled", sampler.sampled() - sampled_reported);
    ingested_reported = stats.ingested;
    sampled_reported = sampler.sampled();
    std::size_t max_depth = 0;
    for (std::size_t s = 0; s < ingest.shard_count(); ++s) {
      const std::size_t depth = ingest.queue_depth(s);
      max_depth = std::max(max_depth, depth);
      registry.observe("serve.queue.depth", static_cast<double>(depth));
      registry.gauge(shard_event_gauges[s],
                     static_cast<double>(ingest.shard_events(s)));
    }
    registry.gauge("serve.queue.depth.max", static_cast<double>(max_depth));
    if (enqueue_marks.size() < kMaxEnqueueMarks) {
      enqueue_marks.push_back(std::chrono::steady_clock::now());
    }
  };

  // At a boundary the router merges the shard deltas, runs the trackers
  // and hands the rolling state to the sealer thread; it waits only while
  // the previous seal is still in flight. Trackers re-read the whole
  // rolling state each epoch; until a full week has been replayed only a
  // prefix of each weekly series has data.
  const auto seal_epoch = [&](std::uint64_t index) {
    const SteadyTime barrier = std::chrono::steady_clock::now();
    ingest.collect_epoch(rolling);
    const std::size_t covered_hours = static_cast<std::size_t>(
        std::min<std::uint64_t>(hours_replayed, ts::kHoursPerWeek));
    peaks.update(rolling, covered_hours);
    const ZipfRankTracker::Update zupdate = zipf.update(rolling);
    stats.rising_fronts = peaks.rising_fronts();
    stats.zipf_rank_changes = zipf.total_rank_changes();
    stats.zipf_exponent = zupdate.fit.exponent;
    double waited = 0.0;
    if (sealer) {
      waited = sealer->submit(index, rolling, barrier, enqueue_marks);
    } else {
      record_publication(index, barrier, enqueue_marks);
      enqueue_marks.clear();
    }
    ++stats.epochs_sealed;
    events_since_seal = 0;
    if (metrics_on) {
      registry.observe("serve.epoch.seal_wait_seconds", waited);
      registry.gauge("serve.zipf.exponent", stats.zipf_exponent);
      registry.gauge("serve.peaks.rising_fronts",
                     static_cast<double>(stats.rising_fronts));
    }
  };

  const std::uint32_t epoch_seconds = config.epoch_seconds;
  for (std::size_t week = 0; !stopping; ++week) {
    if (!run_forever && week >= config.weeks) break;
    const std::uint64_t week_offset =
        static_cast<std::uint64_t>(week) * net::kSecondsPerWeek;
    for (std::size_t hour = 0; hour < ts::kHoursPerWeek && !stopping; ++hour) {
      const auto events = impl_->replay.hour_events(hour);
      std::size_t batch = 0;
      for (const net::ServiceEvent& staged : events) {
        const std::uint64_t scale = sampler.admit();
        if (scale == 0) {
          ++batch;  // dropped events still count against the replay rate
        } else {
          net::ServiceEvent event = staged;
          event.timestamp =
              static_cast<net::Timestamp>(event.timestamp + week_offset);
          if (!ingest.try_route(event, scale, config.route_retry_limit)) {
            // Sustained overload: engage shedding for the *next* events, but
            // never drop one the sampler already admitted — block instead.
            sampler.trigger();
            if (metrics_on) registry.add("serve.overload.triggers");
            ingest.route(event, scale);
          }
          ++stats.ingested;
          ++events_since_seal;
          ++batch;
        }
        if (batch >= kBatchEvents) {
          flush_batch_metrics(batch);
          batch = 0;
          if (should_stop()) {
            stopping = true;
            break;
          }
        }
      }
      if (batch > 0) flush_batch_metrics(batch);
      if (stopping) break;
      const std::uint64_t end_second =
          week_offset + static_cast<std::uint64_t>(hour + 1) *
                            net::kSecondsPerHour;
      ++hours_replayed;
      if (end_second % epoch_seconds == 0) {
        seal_epoch(end_second / epoch_seconds - 1);
      }
      if (should_stop()) stopping = true;
    }
  }

  // Drain: merge whatever the shards still hold and seal the partial epoch,
  // then wait for the last seal, so a SIGTERM'd daemon leaves a consistent
  // latest.snapshot behind.
  if (events_since_seal > 0) {
    const std::uint64_t covered_seconds =
        hours_replayed * net::kSecondsPerHour;
    seal_epoch(covered_seconds / epoch_seconds);
  }
  if (sealer) {
    sealer->finish();
    if (stats.epochs_sealed > 0) stats.latest_snapshot = sealer->latest_path();
  }
  ingest.stop();

  stats.sampled = sampler.sampled();
  stats.overload_triggers = sampler.triggers();
  stats.backpressure_spins = ingest.backpressure_spins();
  const auto wall_end = std::chrono::steady_clock::now();
  stats.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (stats.wall_seconds > 0.0) {
    stats.events_per_second =
        static_cast<double>(stats.ingested + stats.sampled) /
        stats.wall_seconds;
  }
  if (metrics_on) {
    registry.add("net.sampled", sampler.sampled() - sampled_reported);
    registry.add("net.ingested", stats.ingested - ingested_reported);
    registry.add("serve.backpressure.spins", stats.backpressure_spins);
    registry.gauge("serve.events_per_second", stats.events_per_second);
  }
  return stats;
}

}  // namespace appscope::serve
