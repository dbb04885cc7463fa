// Measurement-pipeline reproduction (paper Sec. 2): drives an event-level
// week of IP sessions through the co-located GGSN / P-GW gateways, the
// passive probe and the DPI engine, and reports the classification rate
// (paper: 88% of traffic) and the uplink share of the total load (< 1/20).
#include <iostream>

#include "bench_common.hpp"
#include "core/compare.hpp"
#include "net/simulator.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, {}, {"full"});
  std::cout << util::rule("bench pipeline_dpi") << "\n";
  // Event-level simulation is the expensive path: use test-scale geography
  // unless the caller insists.
  const synth::ScenarioConfig config = args.flags.has("full")
                                           ? args.config
                                           : synth::ScenarioConfig::test_scale();

  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const net::BaseStationRegistry cells(territory, {});
  const net::DpiEngine dpi(catalog);

  net::SessionSimConfig sim_cfg;
  sim_cfg.session_thinning = 0.01;
  net::SessionSimulator sim(territory, subscribers, catalog, cells, dpi, sim_cfg);

  std::vector<std::uint64_t> per_service_records(catalog.size(), 0);
  std::uint64_t unclassified_records = 0;
  std::vector<net::UsageRecord> records;
  const net::SessionSimReport report = sim.run([&](const net::UsageRecord& r) {
    records.push_back(r);
    if (r.service) {
      ++per_service_records[*r.service];
    } else {
      ++unclassified_records;
    }
  });

  std::cout << "cells deployed: " << cells.size() << " ("
            << territory.size() << " communes)\n";
  std::cout << "sessions simulated: " << report.sessions
            << ", handovers: " << report.handovers
            << ", GTP-C events: " << report.probe.gtpc_events
            << ", GTP-U records: " << report.probe.gtpu_records << "\n\n";

  util::TextTable table({"service", "classified records"});
  for (std::size_t s = 0; s < catalog.size(); ++s) {
    table.add_row({catalog[s].name, std::to_string(per_service_records[s])});
  }
  table.add_row({"(unclassified)", std::to_string(unclassified_records)});
  table.render(std::cout);

  std::cout << "\nDPI technique breakdown: SNI="
            << report.probe.technique_hits[0]
            << ", host-suffix=" << report.probe.technique_hits[1]
            << ", heuristic=" << report.probe.technique_hits[2] << "\n";

  std::cout << "\n";
  bench::print_expectation(
      "DPI classified traffic fraction", "88%",
      util::format_percent(report.probe.classified_fraction(), 1));
  const double ul_share =
      static_cast<double>(report.offered_uplink) /
      static_cast<double>(report.offered_uplink + report.offered_downlink);
  bench::print_expectation("uplink share of total load", "< 1/20 (~4.8%)",
                           util::format_percent(ul_share, 2));
  bench::print_expectation("orphan GTP-U records", "0",
                           std::to_string(report.probe.orphan_records));

  // Validation: the dataset assembled from the probe's records must agree
  // with the analytic generator (the large-population limit of the same
  // workload model) on temporal shape and spatial structure.
  std::cout << "\n" << util::rule("pipeline vs analytic generator") << "\n";
  const core::TrafficDataset analytic = core::TrafficDataset::generate(config);
  const core::TrafficDataset measured = core::TrafficDataset::from_usage_records(
      config, territory, subscribers, catalog, records);
  const core::DatasetComparison cmp = core::compare_datasets(
      analytic, measured, workload::Direction::kDownlink);
  bench::print_expectation("mean temporal r2 (per service)", "high",
                           util::format_double(cmp.mean_temporal_r2(), 2));
  bench::print_expectation(
      "mean spatial r2 (per service)",
      "moderate (ULI blur + session sampling)",
      util::format_double(cmp.mean_spatial_r2(), 2));
  bench::print_expectation(
      "measured/analytic volume", "~0.88 (DPI discards 12%)",
      util::format_double(cmp.total_volume_ratio, 2));
  return 0;
}
