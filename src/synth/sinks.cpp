#include "synth/sinks.hpp"

#include "la/simd.hpp"
#include "util/error.hpp"

namespace appscope::synth {

namespace {

constexpr workload::Direction kDown = workload::Direction::kDownlink;
constexpr workload::Direction kUp = workload::Direction::kUplink;

/// Scalar hour-ascending adds of a row into one accumulator: exactly the
/// adds the cell path performs.
void add_in_hour_order(double& total, std::span<const double> hours) {
  double acc = total;
  for (const double v : hours) acc += v;
  total = acc;
}

}  // namespace

// --- TrafficSink ----------------------------------------------------------------

void TrafficSink::consume_row(const TrafficRow& row) {
  APPSCOPE_DCHECK(row.downlink_bytes.size() == row.uplink_bytes.size(),
                  "TrafficSink: ragged row");
  TrafficCell cell;
  cell.service = row.service;
  cell.commune = row.commune;
  cell.urbanization = row.urbanization;
  for (std::size_t h = 0; h < row.downlink_bytes.size(); ++h) {
    cell.week_hour = h;
    cell.downlink_bytes = row.downlink_bytes[h];
    cell.uplink_bytes = row.uplink_bytes[h];
    consume(cell);
  }
}

// --- AggregateSink --------------------------------------------------------------

AggregateSink::AggregateSink(std::size_t service_count,
                             std::size_t commune_count)
    : tables_(service_count, commune_count) {}

void AggregateSink::consume(const TrafficCell& cell) {
  APPSCOPE_DCHECK(cell.commune < tables_.communes() &&
                      cell.week_hour < ts::kHoursPerWeek,
                  "AggregateSink: cell out of range");
  const std::size_t h = cell.week_hour;
  tables_.national_row(cell.service, kDown)[h] += cell.downlink_bytes;
  tables_.national_row(cell.service, kUp)[h] += cell.uplink_bytes;
  tables_.commune_row(cell.service, kDown)[cell.commune] += cell.downlink_bytes;
  tables_.commune_row(cell.service, kUp)[cell.commune] += cell.uplink_bytes;
  tables_.urbanization_row(cell.service, cell.urbanization, kDown)[h] +=
      cell.downlink_bytes;
  tables_.urbanization_row(cell.service, cell.urbanization, kUp)[h] +=
      cell.uplink_bytes;
  tables_.downlink_total += cell.downlink_bytes;
  tables_.uplink_total += cell.uplink_bytes;
  ++tables_.cells;
}

void AggregateSink::consume_row(const TrafficRow& row) {
  APPSCOPE_DCHECK(row.commune < tables_.communes() &&
                      row.downlink_bytes.size() == ts::kHoursPerWeek &&
                      row.uplink_bytes.size() == ts::kHoursPerWeek,
                  "AggregateSink: row out of range");
  const la::simd::Kernels& kernels = la::simd::active();
  const auto accumulate = [&kernels](std::span<double> dst,
                                     std::span<const double> src) {
    kernels.accumulate(dst.data(), src.data(), ts::kHoursPerWeek);
  };
  accumulate(tables_.national_row(row.service, kDown), row.downlink_bytes);
  accumulate(tables_.national_row(row.service, kUp), row.uplink_bytes);
  accumulate(tables_.urbanization_row(row.service, row.urbanization, kDown),
             row.downlink_bytes);
  accumulate(tables_.urbanization_row(row.service, row.urbanization, kUp),
             row.uplink_bytes);
  add_in_hour_order(tables_.commune_row(row.service, kDown)[row.commune],
                    row.downlink_bytes);
  add_in_hour_order(tables_.commune_row(row.service, kUp)[row.commune],
                    row.uplink_bytes);
  add_in_hour_order(tables_.downlink_total, row.downlink_bytes);
  add_in_hour_order(tables_.uplink_total, row.uplink_bytes);
  tables_.cells += row.downlink_bytes.size();
}

// --- BufferSink ------------------------------------------------------------------

void BufferSink::replay_into(TrafficSink& sink) const {
  for (const TrafficCell& cell : cells_) sink.consume(cell);
}

// --- RowBufferSink ---------------------------------------------------------------

void RowBufferSink::consume(const TrafficCell&) {
  APPSCOPE_REQUIRE(false, "RowBufferSink: buffers rows, not cells");
}

void RowBufferSink::consume_row(const TrafficRow& row) {
  APPSCOPE_DCHECK(row.downlink_bytes.size() == ts::kHoursPerWeek &&
                      row.uplink_bytes.size() == ts::kHoursPerWeek,
                  "RowBufferSink: row must span a full week");
  headers_.push_back({row.service, row.commune, row.urbanization});
  downlink_.insert(downlink_.end(), row.downlink_bytes.begin(),
                   row.downlink_bytes.end());
  uplink_.insert(uplink_.end(), row.uplink_bytes.begin(),
                 row.uplink_bytes.end());
}

void RowBufferSink::reserve(std::size_t rows) {
  headers_.reserve(rows);
  downlink_.reserve(rows * ts::kHoursPerWeek);
  uplink_.reserve(rows * ts::kHoursPerWeek);
}

std::size_t RowBufferSink::buffered_bytes() const noexcept {
  return headers_.size() * sizeof(Header) +
         (downlink_.size() + uplink_.size()) * sizeof(double);
}

void RowBufferSink::replay_into(TrafficSink& sink) const {
  TrafficRow row;
  for (std::size_t r = 0; r < headers_.size(); ++r) {
    const Header& h = headers_[r];
    row.service = h.service;
    row.commune = h.commune;
    row.urbanization = h.urbanization;
    const std::size_t base = r * ts::kHoursPerWeek;
    row.downlink_bytes = {downlink_.data() + base, ts::kHoursPerWeek};
    row.uplink_bytes = {uplink_.data() + base, ts::kHoursPerWeek};
    sink.consume_row(row);
  }
}

void RowBufferSink::clear() noexcept {
  headers_.clear();
  downlink_.clear();
  uplink_.clear();
}

}  // namespace appscope::synth
