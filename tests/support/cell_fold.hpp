// The reference the row fold is checked against, and a recorder for
// comparing row streams.
//
// add_cell adds one hour of one service in one commune into the tables,
// one add per entry. CellFoldSink feeds it every hour of every row, in hour
// order, so its tables are what folding the stream one hour at a time
// gives; synth::AggregateSink's row fold must equal them bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "synth/aggregate_tables.hpp"
#include "synth/sinks.hpp"

namespace appscope::test_support {

/// Adds one hour into the national, commune and class entries of both
/// directions, then into the two grand totals, then counts the cell.
inline void add_cell(synth::AggregateTables<double>& t,
                     workload::ServiceIndex service, geo::CommuneId commune,
                     geo::Urbanization u, std::size_t hour, double downlink,
                     double uplink) {
  constexpr workload::Direction kDown = workload::Direction::kDownlink;
  constexpr workload::Direction kUp = workload::Direction::kUplink;
  t.national_row(service, kDown)[hour] += downlink;
  t.national_row(service, kUp)[hour] += uplink;
  t.commune_row(service, kDown)[commune] += downlink;
  t.commune_row(service, kUp)[commune] += uplink;
  t.urbanization_row(service, u, kDown)[hour] += downlink;
  t.urbanization_row(service, u, kUp)[hour] += uplink;
  t.downlink_total += downlink;
  t.uplink_total += uplink;
  ++t.cells;
}

/// Folds each row one hour at a time through add_cell.
class CellFoldSink final : public synth::TrafficSink {
 public:
  CellFoldSink(std::size_t services, std::size_t communes)
      : tables_(services, communes) {}

  void consume_row(const synth::TrafficRow& row) override {
    for (std::size_t h = 0; h < row.downlink_bytes.size(); ++h) {
      add_cell(tables_, row.service, row.commune, row.urbanization, h,
               row.downlink_bytes[h], row.uplink_bytes[h]);
    }
  }

  const synth::AggregateTables<double>& tables() const noexcept {
    return tables_;
  }

 private:
  synth::AggregateTables<double> tables_;
};

/// Expects every entry of `a` and `b`, totals and cell count included, to
/// hold the same bits.
inline void expect_bitwise_equal(const synth::AggregateTables<double>& a,
                                 const synth::AggregateTables<double>& b) {
  const auto same = [](std::span<const double> x, std::span<const double> y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  ASSERT_TRUE(a.layout() == b.layout());
  EXPECT_TRUE(same(a.national(), b.national()));
  EXPECT_TRUE(same(a.commune_totals(), b.commune_totals()));
  EXPECT_TRUE(same(a.urbanization(), b.urbanization()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.downlink_total),
            std::bit_cast<std::uint64_t>(b.downlink_total));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.uplink_total),
            std::bit_cast<std::uint64_t>(b.uplink_total));
  EXPECT_EQ(a.cells, b.cells);
}

/// One row as a sink saw it, its hours copied out of the producer's buffers.
struct RecordedRow {
  workload::ServiceIndex service = 0;
  geo::CommuneId commune = 0;
  geo::Urbanization urbanization = geo::Urbanization::kRural;
  std::vector<double> downlink_bytes;
  std::vector<double> uplink_bytes;

  friend bool operator==(const RecordedRow&, const RecordedRow&) = default;
};

/// Records every row it is fed, in order.
class RowRecorder final : public synth::TrafficSink {
 public:
  void consume_row(const synth::TrafficRow& row) override {
    rows_.push_back({row.service, row.commune, row.urbanization,
                     {row.downlink_bytes.begin(), row.downlink_bytes.end()},
                     {row.uplink_bytes.begin(), row.uplink_bytes.end()}});
  }

  const std::vector<RecordedRow>& rows() const noexcept { return rows_; }

 private:
  std::vector<RecordedRow> rows_;
};

}  // namespace appscope::test_support
