// The serve workloads' shared pieces: the scenario world an IngestDaemon
// builds internally (rebuilt by the harness to precompute expected volumes),
// the daemon configuration both workloads use, and the traced pipeline that
// drives the daemon's public parts in the daemon's order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "geo/territory.hpp"
#include "harness.hpp"
#include "serve/config.hpp"
#include "synth/replay.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace perfbench {

struct World {
  explicit World(const appscope::synth::ScenarioConfig& config);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  appscope::geo::Territory territory;
  appscope::workload::SubscriberBase subscribers;
  appscope::workload::ServiceCatalog catalog;
  std::optional<appscope::synth::EventReplaySource> replay;
  /// Wall time of the EventReplaySource construction.
  double stage_seconds = 0.0;
};

/// Daemon configuration of the serve workloads: hourly seals into `dir`,
/// and a router that never sheds (an event the overload sampler dropped
/// would break the exact-volume checks), so every run is lossless.
appscope::serve::ServeConfig daemon_config(
    const appscope::synth::ScenarioConfig& scenario, std::size_t shards,
    std::size_t weeks, double events_per_second, const std::string& dir);

struct PipelineRun {
  std::uint64_t epochs_sealed = 0;
  std::uint64_t backpressure_spins = 0;
  /// Bytes of epoch files plus latest.snapshot the seals wrote.
  std::uint64_t sealed_bytes = 0;
};

/// IngestDaemon::run's loop (no stop flag, metrics off) over the public
/// pieces it composes — ShardedIngest, OnlinePeakTracker, ZipfRankTracker,
/// EpochSealer, paced by a RatePacer in the daemon's 4096-event batches —
/// with harness spans around each layer: serve.route_s, serve.collect_s,
/// serve.trackers_s and io.seal_s. Seals the same bytes as the daemon.
PipelineRun drive_pipeline(const appscope::serve::ServeConfig& config,
                           const World& world, Tracer& tracer);

}  // namespace perfbench
