// appscope/synth/sinks.hpp
//
// Streaming aggregation sinks. The full-scale scenario evaluates
// 36k communes × 20 services × 168 hours × 2 directions of traffic; the
// generator streams it as whole-week rows and sinks fold them into exactly
// the aggregates the paper's analyses need, so memory stays O(aggregates)
// instead of O(tensor).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geo/commune.hpp"
#include "la/aligned.hpp"
#include "synth/aggregate_tables.hpp"
#include "workload/service.hpp"

namespace appscope::synth {

/// One generated traffic row: a full week of one service in one commune,
/// both directions. The analytic generator emits rows (its hot loop fills
/// the two hourly arrays with one SIMD-dispatched product each) and sinks
/// fold whole rows at a time.
struct TrafficRow {
  workload::ServiceIndex service = 0;
  geo::CommuneId commune = 0;
  geo::Urbanization urbanization = geo::Urbanization::kRural;
  /// Hourly volumes, ts::kHoursPerWeek entries each (index = week hour).
  std::span<const double> downlink_bytes;
  std::span<const double> uplink_bytes;
};

/// Interface implemented by every aggregate builder: the generator feeds it
/// whole-week rows in its deterministic (commune, service) order.
class TrafficSink {
 public:
  virtual ~TrafficSink() = default;
  virtual void consume_row(const TrafficRow& row) = 0;
};

/// Folds the stream into one AggregateTables<double> (Figs. 4-11). A row
/// adds its national and urbanization hours with the accumulate kernel:
/// every hour is its own accumulator, so the kernel gives the bits of
/// adding the row one hour at a time. Its commune and grand totals take
/// scalar hour-ascending adds: all 168 hours land in one accumulator, so
/// that hour-at-a-time order of adds is kept, and with it the bits. The
/// four such totals a row touches share one hour loop.
class AggregateSink final : public TrafficSink {
 public:
  AggregateSink(std::size_t service_count, std::size_t commune_count);
  void consume_row(const TrafficRow& row) override;

  const AggregateTables<double>& tables() const noexcept { return tables_; }
  /// Moves the folded tables out; the sink is empty afterwards.
  AggregateTables<double> take() && { return std::move(tables_); }

 private:
  AggregateTables<double> tables_;
};

/// Buffers whole rows for deferred replay. This is the staging area of the
/// parallel generator: a commune shard that runs ahead of the fold frontier
/// streams its rows into a RowBufferSink (headers plus two flat cache-line-
/// aligned hourly planes — no per-row allocations), which is replayed into
/// the caller's sink in shard order via consume_row, so the downstream sink
/// observes exactly the row sequence the serial generator would have
/// produced. clear() keeps the capacity, so a buffer is reused shard after
/// shard.
class RowBufferSink final : public TrafficSink {
 public:
  void consume_row(const TrafficRow& row) override;

  void reserve(std::size_t rows);
  std::size_t row_count() const noexcept { return headers_.size(); }

  /// Feeds every buffered row into `sink`, in insertion order.
  void replay_into(TrafficSink& sink) const;

  void clear() noexcept;

 private:
  struct Header {
    workload::ServiceIndex service;
    geo::CommuneId commune;
    geo::Urbanization urbanization;
  };
  std::vector<Header> headers_;
  /// row_count() * ts::kHoursPerWeek hourly volumes, row-major.
  la::AlignedVector<double> downlink_;
  la::AlignedVector<double> uplink_;
};

}  // namespace appscope::synth
