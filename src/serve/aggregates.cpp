#include "serve/aggregates.hpp"

namespace appscope::serve {

namespace {
constexpr workload::Direction kDown = workload::Direction::kDownlink;
constexpr workload::Direction kUp = workload::Direction::kUplink;
}  // namespace

void EventAggregates::apply(const net::ServiceEvent& event,
                            std::uint64_t scale) noexcept {
  const synth::AggregateLayout& l = layout();
  const std::size_t s = event.service;
  const std::size_t c = event.commune;
  const std::size_t h = event.week_hour();
  const auto u = static_cast<geo::Urbanization>(event.urbanization);
  const std::uint64_t dl = event.downlink_bytes * scale;
  const std::uint64_t ul = event.uplink_bytes * scale;

  std::uint64_t* nat = national().data();
  nat[l.national_offset(s, kDown) + h] += dl;
  nat[l.national_offset(s, kUp) + h] += ul;
  std::uint64_t* com = commune_totals().data();
  com[l.commune_offset(s, kDown) + c] += dl;
  com[l.commune_offset(s, kUp) + c] += ul;
  std::uint64_t* urb = urbanization().data();
  urb[l.urbanization_offset(s, u, kDown) + h] += dl;
  urb[l.urbanization_offset(s, u, kUp) + h] += ul;

  downlink_total += dl;
  uplink_total += ul;
  ++cells;
}

std::uint64_t EventAggregates::national_total(std::size_t service) const {
  std::uint64_t total = 0;
  for (const auto d : {kDown, kUp}) {
    for (const std::uint64_t v : national_row(service, d)) total += v;
  }
  return total;
}

std::vector<double> EventAggregates::national_downlink_series(
    std::size_t service) const {
  const auto row = national_row(service, kDown);
  std::vector<double> series(row.size());
  for (std::size_t h = 0; h < row.size(); ++h) {
    series[h] = static_cast<double>(row[h]);
  }
  return series;
}

}  // namespace appscope::serve
