// appscope/serve/epoch.hpp
//
// Epoch-based publication of the live ingest state. Epochs are defined on
// *event time* (never wall time): epoch e covers event seconds
// [e * epoch_seconds, (e + 1) * epoch_seconds). That makes the sequence of
// sealed states a pure function of the event stream and the schedule — the
// determinism contract property tests pin down.
//
// At each boundary the daemon merges the shard deltas into its rolling
// state and the sealer writes it through the snapshot store as a
// self-contained "appscope.snapshot/1" file: epoch_<index>.snapshot,
// published with io::publish (temp name, fsync, rename, directory fsync),
// then latest.snapshot republished as a hard link to it with
// io::publish_link. Readers (run_study, paper_report, appscope_query
// consumers) always observe a complete, CRC-valid file, and a reader that
// mapped the previous latest.snapshot keeps that file intact.
#pragma once

#include <cstdint>
#include <string>

#include "geo/territory.hpp"
#include "io/snapshot.hpp"
#include "serve/aggregates.hpp"
#include "synth/scenario.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace appscope::serve {

/// Event-time epoch schedule. Epoch lengths are whole hours: the replay
/// source stages events hour-major, so hour boundaries are the finest
/// sealing granularity the stream exposes.
struct EpochSchedule {
  std::uint32_t epoch_seconds = 3600;

  std::uint64_t epoch_of(std::uint64_t event_second) const noexcept {
    return event_second / epoch_seconds;
  }
};

struct SealedEpoch {
  std::uint64_t index = 0;
  std::string path;
  /// Events accumulated in the sealed (rolling) state.
  std::uint64_t events = 0;
  io::SnapshotStats stats;
};

class EpochSealer {
 public:
  /// Creates `directory` if missing. References must outlive the sealer;
  /// they are embedded in every sealed snapshot so each file is
  /// self-contained and loads via core::TrafficDataset::load.
  EpochSealer(std::string directory, const synth::ScenarioConfig& config,
              const geo::Territory& territory,
              const workload::SubscriberBase& subscribers,
              const workload::ServiceCatalog& catalog);

  /// Seals the rolling state as epoch `index`: publishes
  /// io::epoch_filename(index) and republishes latest.snapshot as a link
  /// to it. Throws util::InputError on I/O failure.
  SealedEpoch seal(std::uint64_t index, const EventAggregates& rolling);

  /// Path the most recent complete snapshot is published under.
  std::string latest_path() const;

 private:
  std::string directory_;
  const synth::ScenarioConfig& config_;
  const geo::Territory& territory_;
  const workload::SubscriberBase& subscribers_;
  const workload::ServiceCatalog& catalog_;
};

}  // namespace appscope::serve
