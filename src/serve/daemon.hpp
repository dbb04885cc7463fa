// appscope/serve/daemon.hpp
//
// IngestDaemon: the appscope_serve main loop. Owns the whole pipeline —
// scenario → EventReplaySource → router (sampling + backpressure) →
// ShardedIngest → rolling EventAggregates → online trackers →
// BackgroundSealer — and runs it until the replay finishes, the wall-clock
// budget expires, or the stop flag (SIGTERM) is raised. Its threads are the
// router (the caller of run()), one worker per shard and, when sealing, one
// sealer. See DESIGN.md §4h for the architecture and the determinism
// contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "serve/config.hpp"

namespace appscope::serve {

/// Run summary, also the soak job's validation surface (mirrors the
/// metrics JSON counters).
struct ServeStats {
  /// Events delivered into shard aggregates (includes scaled keepers).
  std::uint64_t ingested = 0;
  /// Events dropped by overload sampling (net.sampled).
  std::uint64_t sampled = 0;
  /// Sustained-overload triggers observed by the router.
  std::uint64_t overload_triggers = 0;
  /// Full-queue retries burned by the router (backpressure measure).
  std::uint64_t backpressure_spins = 0;
  std::uint64_t epochs_sealed = 0;
  /// Online analyses at the last sealed epoch.
  std::uint64_t rising_fronts = 0;
  std::uint64_t zipf_rank_changes = 0;
  double zipf_exponent = 0.0;
  double wall_seconds = 0.0;
  double events_per_second = 0.0;
  /// Path of latest.snapshot ("" when sealing is disabled).
  std::string latest_snapshot;
};

class IngestDaemon {
 public:
  /// Checks the configuration, then builds the scenario world (territory,
  /// subscribers, catalog) and stages the replay week. Throws
  /// util::PreconditionError on invalid configuration (epoch_seconds not a
  /// whole number of hours, zero shards, a negative or non-finite rate or
  /// duration, ...).
  explicit IngestDaemon(ServeConfig config);
  ~IngestDaemon();
  IngestDaemon(const IngestDaemon&) = delete;
  IngestDaemon& operator=(const IngestDaemon&) = delete;

  /// Runs the ingest loop to completion (or stop signal), seals the final
  /// partial epoch, waits for its seal, and returns the run summary. A
  /// failed seal (util::InputError) is rethrown here, at the next epoch
  /// boundary or at the drain, and no later epoch is sealed. Call at most
  /// once.
  ServeStats run();

  /// Staged events per replayed week (diagnostics / test sizing).
  std::size_t week_event_count() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace appscope::serve
