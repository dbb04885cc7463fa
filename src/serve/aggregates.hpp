// appscope/serve/aggregates.hpp
//
// Integer aggregate state for the streaming ingest plane: the
// synth::AggregateTables layout summed as uint64 byte counts, plus the fold
// of one event. Unsigned addition is associative and commutative, so the
// merge of per-shard partials is independent of shard assignment and
// arrival interleaving, and the seal's convert<double>() is a pure function
// of the totals: epoch snapshots are bitwise-identical at any shard or
// thread count (see synth/aggregate_tables.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "net/event.hpp"
#include "synth/aggregate_tables.hpp"

namespace appscope::serve {

class EventAggregates : public synth::AggregateTables<std::uint64_t> {
 public:
  /// Zeroed tables. Throws util::PreconditionError on an empty dimension.
  EventAggregates(std::size_t services, std::size_t communes)
      : AggregateTables(services, communes) {}

  /// Folds one event, its volumes scaled by `scale` (the overload sampler's
  /// inverse keep probability; 1 when not sampling). Integer multiply, so
  /// scaled accumulation is exact.
  void apply(const net::ServiceEvent& event, std::uint64_t scale) noexcept;

  /// Events folded in.
  std::uint64_t events() const noexcept { return cells; }

  /// National weekly total of one service, both directions (Zipf tracking).
  std::uint64_t national_total(std::size_t service) const;

  /// National hourly downlink series of one service as doubles (online peak
  /// detection input).
  std::vector<double> national_downlink_series(std::size_t service) const;
};

}  // namespace appscope::serve
