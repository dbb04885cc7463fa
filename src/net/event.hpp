// appscope/net/event.hpp
//
// The streaming ingest event: one service-classified volume report for one
// commune, the unit the appscope_serve daemon aggregates at production
// rates. Where net::UsageRecord is the *offline* probe output (optional
// service, hour granularity), ServiceEvent is the *streaming* shape —
// fixed-size, always classified, second-granular timestamp — so the daemon
// routes events by value without any per-event allocation.
#pragma once

#include <cstddef>
#include <cstdint>

#include "geo/commune.hpp"
#include "net/types.hpp"

namespace appscope::net {

/// One service-level traffic event. `timestamp` is in seconds and may run
/// past one week (a live stream covers many rolling weeks); consumers fold
/// it into the weekly cycle with week_hour().
struct ServiceEvent {
  Timestamp timestamp = 0;
  geo::CommuneId commune = 0;
  std::uint16_t service = 0;
  std::uint8_t urbanization = 0;  // geo::Urbanization
  std::uint8_t flags = 0;         // reserved
  Bytes downlink_bytes = 0;
  Bytes uplink_bytes = 0;

  /// Hour of the measurement week this event falls in, [0, 168).
  std::size_t week_hour() const noexcept {
    return (timestamp % kSecondsPerWeek) / kSecondsPerHour;
  }

  friend bool operator==(const ServiceEvent&, const ServiceEvent&) = default;
};

}  // namespace appscope::net
