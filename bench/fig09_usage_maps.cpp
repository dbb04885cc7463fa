// Fig. 9 reproduction: maps of the average per-subscriber downlink activity
// for Twitter (left) and Netflix (middle), plus the 3G/4G coverage map
// (right). Paper results: cities and transport corridors stand out for every
// service; Netflix is dramatically low or absent across rural regions, and
// its footprint follows the 4G coverage.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/spatial_analysis.hpp"
#include "geo/grid_map.hpp"
#include "util/strings.hpp"

using namespace appscope;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, {"snapshot"});
  std::cout << util::rule("bench fig09_usage_maps") << "\n";
  const core::TrafficDataset dataset = bench::build_dataset(args);

  for (const char* name : {"Twitter", "Netflix"}) {
    const auto idx = dataset.catalog().find(name);
    if (!idx) continue;
    const core::UsageMapReport report = core::analyze_usage_map(
        dataset, *idx, workload::Direction::kDownlink, 72, 30);
    std::cout << util::rule(std::string("Fig. 9 — per-subscriber downlink, ") +
                            name)
              << "\n";
    std::cout << report.usage_map.render_ascii() << "\n";
    std::cout << "  communes with zero traffic: "
              << util::format_percent(report.absent_commune_fraction, 1)
              << "; urban mean "
              << util::format_bytes(report.urban_mean) << "/user vs rural mean "
              << util::format_bytes(report.rural_mean) << "/user\n\n";
  }

  std::cout << util::rule("Fig. 9 (right) — 3G/4G coverage") << "\n";
  const geo::GridMap coverage = geo::map_coverage(dataset.territory(), 72, 30);
  std::cout << coverage.render_ascii(false) << "\n";

  const auto twitter = core::analyze_usage_map(
      dataset, *dataset.catalog().find("Twitter"), workload::Direction::kDownlink);
  const auto netflix = core::analyze_usage_map(
      dataset, *dataset.catalog().find("Netflix"), workload::Direction::kDownlink);
  bench::print_expectation("Twitter absent communes", "few",
                           util::format_percent(twitter.absent_commune_fraction, 1));
  bench::print_expectation("Netflix absent communes",
                           "large rural regions (4G-gated)",
                           util::format_percent(netflix.absent_commune_fraction, 1));
  bench::print_expectation(
      "Netflix urban/rural per-user contrast vs Twitter", "much stronger",
      util::format_double(netflix.urban_mean / (netflix.rural_mean + 1.0), 1) +
          "x vs " +
          util::format_double(twitter.urban_mean / (twitter.rural_mean + 1.0), 1) +
          "x");
  return 0;
}
