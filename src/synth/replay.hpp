// appscope/synth/replay.hpp
//
// Rate-controlled event replay: turns the AnalyticGenerator's row stream
// into the time-ordered net::ServiceEvent stream the appscope_serve ingest
// daemon consumes.
//
// Staging quantizes every (service, commune, hour) cell's volumes to
// integer bytes (llround) and splits them over `events_per_cell` events, so
// the replayed stream aggregates back to the analytic dataset exactly up to
// that per-cell rounding. Events are staged hour-major — all of hour 0,
// then hour 1, ... — in (commune, service) row order within each hour, so
// replay is nondecreasing in event time and deterministic for a fixed seed.
//
// RatePacer turns the unthrottled staged stream into a paced one: it sleeps
// just enough to hold a target events/second, in batches, so the daemon can
// replay "a week per minute" or saturate the box, as the scenario needs.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/territory.hpp"
#include "net/event.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace appscope::synth {

class EventReplaySource {
 public:
  /// Stages one synthetic week of events from the scenario's analytic
  /// generator. References must outlive the source. `events_per_cell`
  /// (>= 1) splits each nonzero cell's volume over that many events —
  /// larger values stress queue throughput with smaller events. Each hour
  /// is reserved for communes × services × events_per_cell events; a
  /// bound that overflows or cannot be reserved throws util::InputError
  /// naming events_per_cell.
  EventReplaySource(const geo::Territory& territory,
                    const workload::SubscriberBase& subscribers,
                    const workload::ServiceCatalog& catalog,
                    const ScenarioConfig& config,
                    std::size_t events_per_cell = 1);

  /// Total staged events for one week.
  std::size_t week_event_count() const noexcept { return week_events_; }

  /// Events of one week hour, in staging order (timestamps are
  /// week-relative; replay loops add whole-week offsets).
  std::span<const net::ServiceEvent> hour_events(std::size_t week_hour) const;

  /// Sum of staged volumes (diagnostics; equals the analytic dataset's
  /// totals up to per-cell rounding).
  net::Bytes staged_downlink_bytes() const noexcept { return staged_downlink_; }
  net::Bytes staged_uplink_bytes() const noexcept { return staged_uplink_; }

 private:
  /// hours_[h] holds week hour h's events: the only copy of the week.
  std::vector<std::vector<net::ServiceEvent>> hours_;
  std::size_t week_events_ = 0;
  net::Bytes staged_downlink_ = 0;
  net::Bytes staged_uplink_ = 0;
};

/// Token-bucket pacing for replay: await(n) blocks until emitting n more
/// events keeps the stream at or below the target rate. A target of 0 means
/// unthrottled (await returns immediately).
class RatePacer {
 public:
  explicit RatePacer(double events_per_second);

  /// Accounts n emitted events and sleeps if the stream is ahead of pace.
  void await(std::uint64_t n);

  double target_rate() const noexcept { return rate_; }

 private:
  double rate_;
  std::uint64_t emitted_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace appscope::synth
