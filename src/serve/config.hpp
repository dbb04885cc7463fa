// appscope/serve/config.hpp
//
// Configuration of the appscope_serve ingest daemon.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "synth/scenario.hpp"

namespace appscope::serve {

struct ServeConfig {
  /// Scenario the replay source synthesizes (territory, population,
  /// catalog, traffic seed).
  synth::ScenarioConfig scenario = synth::ScenarioConfig::test_scale();

  /// Ingest shards: one aggregation worker + one SPSC queue each.
  std::size_t shard_count = 4;
  /// Per-shard queue capacity (rounded up to a power of two).
  std::size_t queue_capacity = 1 << 16;
  /// Full-queue retries before an event counts as sustained overload and
  /// the sampler engages.
  std::size_t route_retry_limit = 1024;

  /// Event-time epoch length; must be a whole number of hours (the replay
  /// stream is hour-granular).
  std::uint32_t epoch_seconds = 3600;

  /// Events each nonzero (service, commune, hour) cell is split into.
  std::size_t events_per_cell = 1;
  /// Target replay rate in events/second; 0 = unthrottled (as fast as the
  /// shards accept).
  double target_events_per_second = 0.0;
  /// Wall-clock run length; 0 = replay exactly `weeks` weeks instead.
  double duration_seconds = 0.0;
  /// Weeks to replay when duration_seconds == 0 (the staged week loops,
  /// epoch indices keep increasing).
  std::size_t weeks = 1;

  /// Overload sampling: keep 1 event in `sample_period`, volumes scaled by
  /// the period (see serve/sampler.hpp).
  std::uint64_t sample_period = 8;
  /// Events one overload trigger keeps sampling active for.
  std::uint64_t sample_window = 65536;
  /// Sample the whole stream from event zero (deterministic overload tests).
  bool force_sampling = false;

  /// Directory epoch snapshots are sealed into; empty disables sealing.
  /// It belongs to one run: IngestDaemon::run first removes the
  /// latest.snapshot, epoch_*.snapshot and *.snapshot.tmp files an earlier
  /// run left there.
  std::string snapshot_dir;

  /// When set, a true value drains and stops the daemon (SIGTERM handler
  /// target). Checked between routing batches.
  const std::atomic<bool>* stop_flag = nullptr;
};

}  // namespace appscope::serve
