// Fig. 11 reproduction: per-user traffic across urbanization levels.
// Top: the slope of the least-squares regression of semi-urban / rural /
// TGV per-subscriber time series against the urban series, per service
// (paper: semi ≈ 1, rural ≈ 0.5, TGV ≥ 2, with Adult inverted on TGV).
// Bottom: mean r² between the time series of a service across urbanization
// levels (paper: high everywhere except TGV).
#include <iostream>

#include "bench_common.hpp"
#include "core/urbanization_analysis.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, {"snapshot"});
  std::cout << util::rule("bench fig11_urbanization") << "\n";
  const core::TrafficDataset dataset = bench::build_dataset(args);
  const core::UrbanizationReport report =
      core::analyze_urbanization(dataset, workload::Direction::kDownlink);

  std::cout << util::rule("Fig. 11 (top) — per-user volume ratio vs urban")
            << "\n";
  util::TextTable top({"service", "Semi-Urban", "Rural", "TGV"});
  for (const auto& s : report.services) {
    top.add_row(
        {s.name,
         util::format_double(
             s.volume_ratio[static_cast<std::size_t>(geo::Urbanization::kSemiUrban)],
             2),
         util::format_double(
             s.volume_ratio[static_cast<std::size_t>(geo::Urbanization::kRural)], 2),
         util::format_double(
             s.volume_ratio[static_cast<std::size_t>(geo::Urbanization::kTgv)], 2)});
  }
  top.render(std::cout);

  std::cout << "\n"
            << util::rule("Fig. 11 (bottom) — temporal r2 across urbanization")
            << "\n";
  util::TextTable bottom({"service", "Urban", "Semi-Urban", "Rural", "TGV"});
  for (const auto& s : report.services) {
    std::vector<std::string> row{s.name};
    for (const auto u :
         {geo::Urbanization::kUrban, geo::Urbanization::kSemiUrban,
          geo::Urbanization::kRural, geo::Urbanization::kTgv}) {
      row.push_back(
          util::format_double(s.temporal_r2[static_cast<std::size_t>(u)], 2));
    }
    bottom.add_row(std::move(row));
  }
  bottom.render(std::cout);

  std::cout << "\n";
  bench::print_expectation(
      "semi-urban volume ratio", "~1",
      util::format_double(report.mean_volume_ratio(geo::Urbanization::kSemiUrban), 2));
  bench::print_expectation(
      "rural volume ratio", "~0.5",
      util::format_double(report.mean_volume_ratio(geo::Urbanization::kRural), 2));
  bench::print_expectation(
      "TGV volume ratio", ">= 2",
      util::format_double(report.mean_volume_ratio(geo::Urbanization::kTgv), 2));
  bench::print_expectation(
      "temporal r2 urban/semi/rural", "high (urbanization barely affects WHEN)",
      util::format_double(report.mean_temporal_r2(geo::Urbanization::kSemiUrban), 2) +
          " / " +
          util::format_double(report.mean_temporal_r2(geo::Urbanization::kRural), 2));
  bench::print_expectation(
      "temporal r2 TGV", "distinctly lower (train schedules)",
      util::format_double(report.mean_temporal_r2(geo::Urbanization::kTgv), 2));
  return 0;
}
