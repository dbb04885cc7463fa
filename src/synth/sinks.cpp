#include "synth/sinks.hpp"

#include "la/simd.hpp"
#include "util/error.hpp"

namespace appscope::synth {

namespace {

constexpr workload::Direction kDown = workload::Direction::kDownlink;
constexpr workload::Direction kUp = workload::Direction::kUplink;

}  // namespace

// --- AggregateSink --------------------------------------------------------------

AggregateSink::AggregateSink(std::size_t service_count,
                             std::size_t commune_count)
    : tables_(service_count, commune_count) {}

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
  // The commune cells and the grand totals each take the row's 168 hours
  // in ascending order, as folding it one hour at a time does. The four
  // chains are independent, so one hour loop carries all four side by side.
  double& commune_down = tables_.commune_row(row.service, kDown)[row.commune];
  double& commune_up = tables_.commune_row(row.service, kUp)[row.commune];
  double cell_down = commune_down;
  double cell_up = commune_up;
  double total_down = tables_.downlink_total;
  double total_up = tables_.uplink_total;
  for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
    const double down = row.downlink_bytes[h];
    const double up = row.uplink_bytes[h];
    cell_down += down;
    cell_up += up;
    total_down += down;
    total_up += up;
  }
  commune_down = cell_down;
  commune_up = cell_up;
  tables_.downlink_total = total_down;
  tables_.uplink_total = total_up;
  tables_.cells += row.downlink_bytes.size();
}

// --- RowBufferSink ---------------------------------------------------------------

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
