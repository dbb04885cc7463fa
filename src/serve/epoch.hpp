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
//
// The daemon seals off its router thread: BackgroundSealer runs
// EpochSealer::seal on one thread of its own over a copy of the rolling
// state, at most one seal in flight, while the router routes the next
// epoch.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "geo/territory.hpp"
#include "io/snapshot.hpp"
#include "serve/aggregates.hpp"
#include "synth/scenario.hpp"
#include "util/trace.hpp"
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

using SteadyTime = std::chrono::steady_clock::time_point;

/// Records one epoch's publication: serve.epoch.seal_wall_seconds (from
/// `barrier`, when the epoch's collect began, to now), one
/// serve.ingest.enqueue_to_seal sample per mark in `enqueue_marks` (the
/// routed batches the epoch holds), and the serve.epoch.last_index gauge.
/// No-op while metrics are disabled.
void record_publication(std::uint64_t index, SteadyTime barrier,
                        const std::vector<SteadyTime>& enqueue_marks);

/// EpochSealer::seal on one sealer thread, at most one seal in flight.
/// submit() blocks only while the previous seal still runs, copies the
/// rolling state into one reused buffer and returns; the thread seals that
/// copy and then records its publication (record_publication). A seal that
/// throws is stored and no later epoch is sealed: the next submit(), or
/// finish(), rethrows it on the caller's thread.
class BackgroundSealer {
 public:
  /// Starts the sealer thread. Seal spans parent to the span open here.
  BackgroundSealer(EpochSealer sealer, std::size_t services,
                   std::size_t communes);
  /// Joins, after the seal in flight (if any) ends; a failure finish()
  /// did not report is dropped.
  ~BackgroundSealer();
  BackgroundSealer(const BackgroundSealer&) = delete;
  BackgroundSealer& operator=(const BackgroundSealer&) = delete;

  /// Hands epoch `index` to the sealer thread. Waits while the previous
  /// seal runs and rethrows its failure, then copies `rolling` and takes
  /// `enqueue_marks` (left empty) for record_publication, with `barrier` as
  /// the epoch's start. Returns the seconds it waited (0 when the sealer
  /// was idle). Throws util::PreconditionError after finish().
  double submit(std::uint64_t index, const EventAggregates& rolling,
                SteadyTime barrier, std::vector<SteadyTime>& enqueue_marks);

  /// Waits for the last seal, joins the thread and rethrows the first
  /// failure. Call once, after the last submit().
  void finish();

  std::string latest_path() const { return sealer_.latest_path(); }

 private:
  void loop();
  void close();

  EpochSealer sealer_;
  const util::SpanContext span_context_;

  std::mutex mutex_;
  std::condition_variable cv_;
  /// The job, written by submit() while !pending_ and read by the thread
  /// while pending_.
  EventAggregates buffer_;
  std::uint64_t index_ = 0;
  SteadyTime barrier_;
  std::vector<SteadyTime> marks_;
  bool pending_ = false;  // a job is submitted and not yet sealed
  bool closing_ = false;
  std::exception_ptr failure_;

  std::thread thread_;  // last: starts once every member above exists
};

}  // namespace appscope::serve
