// appscope/synth/sinks.hpp
//
// Streaming aggregation sinks. The full-scale scenario evaluates
// 36k communes × 20 services × 168 hours × 2 directions of traffic cells;
// sinks fold that stream into exactly the aggregates the paper's analyses
// need, so memory stays O(aggregates) instead of O(tensor).
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

/// One generated traffic cell: volume of a service in a commune over one
/// hour, split by direction.
struct TrafficCell {
  workload::ServiceIndex service = 0;
  geo::CommuneId commune = 0;
  std::size_t week_hour = 0;
  geo::Urbanization urbanization = geo::Urbanization::kRural;
  double downlink_bytes = 0.0;
  double uplink_bytes = 0.0;
};

/// One generated traffic row: a full week of one service in one commune,
/// both directions. The analytic generator emits rows (its hot loop fills
/// the two hourly arrays with one SIMD-dispatched product each) and the
/// aggregation sink folds whole rows at a time; `consume(cell)` remains for
/// cell-granular producers such as the event-level simulator.
struct TrafficRow {
  workload::ServiceIndex service = 0;
  geo::CommuneId commune = 0;
  geo::Urbanization urbanization = geo::Urbanization::kRural;
  /// Hourly volumes, ts::kHoursPerWeek entries each (index = week hour).
  std::span<const double> downlink_bytes;
  std::span<const double> uplink_bytes;
};

/// Interface implemented by every aggregate builder.
class TrafficSink {
 public:
  virtual ~TrafficSink() = default;
  virtual void consume(const TrafficCell& cell) = 0;

  /// Consumes a whole-week row. The default expands the row into per-hour
  /// cells and feeds them to consume() in hour order, so sinks that only
  /// implement the cell interface observe exactly the stream the cell-level
  /// generator produced; AggregateSink overrides this with a row-at-a-time
  /// fold that accumulates the same bits without the per-cell virtual
  /// dispatch.
  virtual void consume_row(const TrafficRow& row);
};

/// Folds the stream into one AggregateTables<double> (Figs. 4-11). A row
/// adds its national and urbanization hours with the accumulate kernel:
/// every hour is its own accumulator, so the kernel reproduces the per-cell
/// bits exactly. Its commune and grand totals take scalar hour-ascending
/// adds: all 168 hours land in one accumulator, so the cell path's order of
/// adds is kept, and with it the bits.
class AggregateSink final : public TrafficSink {
 public:
  AggregateSink(std::size_t service_count, std::size_t commune_count);
  void consume(const TrafficCell& cell) override;
  void consume_row(const TrafficRow& row) override;

  const AggregateTables<double>& tables() const noexcept { return tables_; }
  /// Moves the folded tables out; the sink is empty afterwards.
  AggregateTables<double> take() && { return std::move(tables_); }

 private:
  AggregateTables<double> tables_;
};

/// Buffers cells verbatim for deferred replay (tests and cell-granular
/// producers; the parallel generator stages rows in a RowBufferSink
/// instead). Rows arriving through the default consume_row expansion are
/// buffered as their per-hour cells.
class BufferSink final : public TrafficSink {
 public:
  void consume(const TrafficCell& cell) override { cells_.push_back(cell); }

  void reserve(std::size_t cells) { cells_.reserve(cells); }
  std::size_t size() const noexcept { return cells_.size(); }
  const std::vector<TrafficCell>& cells() const noexcept { return cells_; }

  /// Feeds every buffered cell into `sink`, in insertion order.
  void replay_into(TrafficSink& sink) const;

  void clear() noexcept { cells_.clear(); }

 private:
  std::vector<TrafficCell> cells_;
};

/// Buffers whole rows for deferred replay. This is the thread-local staging
/// area of the parallel generator: each worker streams its commune shard's
/// rows into a private RowBufferSink (headers plus two flat cache-line-
/// aligned hourly planes — no per-row allocations), and the buffers are
/// replayed into the caller's sink in shard order via consume_row, so the
/// downstream sink observes exactly the row sequence the serial generator
/// would have produced.
class RowBufferSink final : public TrafficSink {
 public:
  /// Row-only staging: the generator never produces loose cells
  /// (PreconditionError if called).
  void consume(const TrafficCell& cell) override;
  void consume_row(const TrafficRow& row) override;

  void reserve(std::size_t rows);
  std::size_t row_count() const noexcept { return headers_.size(); }
  /// Bytes currently held by the row buffers (headers + hourly planes).
  std::size_t buffered_bytes() const noexcept;

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
