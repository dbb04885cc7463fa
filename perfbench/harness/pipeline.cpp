#include "pipeline.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <limits>

#include "net/types.hpp"
#include "serve/epoch.hpp"
#include "serve/ingest.hpp"
#include "serve/online.hpp"
#include "serve/sampler.hpp"
#include "ts/calendar.hpp"

namespace perfbench {

namespace {

namespace net = appscope::net;
namespace serve = appscope::serve;

/// Events the daemon routes between pacing checks.
constexpr std::size_t kBatchEvents = 4096;

/// Bytes one seal wrote: the epoch file, plus latest.snapshot unless it is
/// a hard link to that epoch file.
std::uint64_t seal_bytes_written(const std::string& epoch_path,
                                 const std::string& latest_path) {
  struct stat epoch_st{};
  struct stat latest_st{};
  if (::stat(epoch_path.c_str(), &epoch_st) != 0 ||
      ::stat(latest_path.c_str(), &latest_st) != 0) {
    return 0;
  }
  const bool linked =
      epoch_st.st_dev == latest_st.st_dev && epoch_st.st_ino == latest_st.st_ino;
  return static_cast<std::uint64_t>(epoch_st.st_size) +
         (linked ? 0 : static_cast<std::uint64_t>(latest_st.st_size));
}

}  // namespace

World::World(const appscope::synth::ScenarioConfig& config)
    : territory(appscope::geo::build_synthetic_country(config.country)),
      subscribers(territory, config.population),
      catalog(appscope::workload::ServiceCatalog::paper_services()) {
  const auto t0 = Clock::now();
  replay.emplace(territory, subscribers, catalog, config);
  stage_seconds = seconds_between(t0, Clock::now());
}

serve::ServeConfig daemon_config(const appscope::synth::ScenarioConfig& scenario,
                                 std::size_t shards, std::size_t weeks,
                                 double events_per_second, const std::string& dir) {
  serve::ServeConfig cfg;
  cfg.scenario = scenario;
  cfg.shard_count = shards;
  cfg.epoch_seconds = 3600;
  cfg.weeks = weeks;
  cfg.target_events_per_second = events_per_second;
  cfg.route_retry_limit = std::numeric_limits<std::size_t>::max();
  cfg.snapshot_dir = dir;
  return cfg;
}

PipelineRun drive_pipeline(const serve::ServeConfig& cfg, const World& world,
                           Tracer& tracer) {
  const std::size_t services = world.catalog.size();
  const std::size_t communes = world.territory.size();
  serve::EventAggregates rolling(services, communes);
  serve::ShardedIngest ingest(services, communes,
                              {cfg.shard_count, cfg.queue_capacity});
  serve::OverloadSampler sampler(cfg.sample_period, cfg.sample_window);
  appscope::synth::RatePacer pacer(cfg.target_events_per_second);
  serve::EpochSealer sealer(cfg.snapshot_dir, cfg.scenario, world.territory,
                            world.subscribers, world.catalog);
  serve::OnlinePeakTracker peaks(services);
  serve::ZipfRankTracker zipf(services);

  PipelineRun run;
  std::uint64_t hours_replayed = 0;
  std::uint64_t events_since_seal = 0;
  const auto seal_epoch = [&](std::uint64_t index) {
    {
      Tracer::Scope s(&tracer, "serve.collect_s");
      ingest.collect_epoch(rolling);
    }
    {
      Tracer::Scope s(&tracer, "serve.trackers_s");
      peaks.update(rolling, static_cast<std::size_t>(std::min<std::uint64_t>(
                                hours_replayed, appscope::ts::kHoursPerWeek)));
      zipf.update(rolling);
    }
    std::string path;
    {
      Tracer::Scope s(&tracer, "io.seal_s");
      path = sealer.seal(index, rolling).path;
    }
    run.sealed_bytes += seal_bytes_written(path, sealer.latest_path());
    ++run.epochs_sealed;
    events_since_seal = 0;
  };

  for (std::size_t week = 0; week < cfg.weeks; ++week) {
    const std::uint64_t week_offset =
        static_cast<std::uint64_t>(week) * net::kSecondsPerWeek;
    for (std::size_t hour = 0; hour < appscope::ts::kHoursPerWeek; ++hour) {
      const auto events = world.replay->hour_events(hour);
      for (std::size_t begin = 0; begin < events.size(); begin += kBatchEvents) {
        const std::size_t end = std::min(begin + kBatchEvents, events.size());
        {
          Tracer::Scope s(&tracer, "serve.route_s");
          for (std::size_t i = begin; i < end; ++i) {
            const std::uint64_t scale = sampler.admit();
            if (scale == 0) continue;
            net::ServiceEvent event = events[i];
            event.timestamp =
                static_cast<net::Timestamp>(event.timestamp + week_offset);
            if (!ingest.try_route(event, scale, cfg.route_retry_limit)) {
              sampler.trigger();
              ingest.route(event, scale);
            }
            ++events_since_seal;
          }
        }
        pacer.await(end - begin);
      }
      ++hours_replayed;
      const std::uint64_t end_second =
          week_offset + static_cast<std::uint64_t>(hour + 1) * net::kSecondsPerHour;
      if (end_second % cfg.epoch_seconds == 0) {
        seal_epoch(end_second / cfg.epoch_seconds - 1);
      }
    }
  }
  if (events_since_seal > 0) {
    seal_epoch(hours_replayed * net::kSecondsPerHour / cfg.epoch_seconds);
  }
  ingest.stop();
  run.backpressure_spins = ingest.backpressure_spins();
  return run;
}

}  // namespace perfbench
