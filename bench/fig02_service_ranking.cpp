// Fig. 2 reproduction: ranking of >500 mobile services on normalized traffic
// volume, downlink and uplink. Paper result: the top half follows a Zipf law
// (exponents 1.69 / 1.55) and a cutoff separates the bottom half.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/rank_analysis.hpp"
#include "stats/zipf.hpp"
#include "synth/generator.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

namespace {

void run_direction(const core::TrafficDataset& dataset, workload::Direction d) {
  const core::ServiceRankingReport report =
      core::analyze_service_ranking(dataset, d);

  std::cout << util::rule(std::string("Fig. 2 — service ranking, ") +
                          std::string(workload::direction_name(d)))
            << "\n";

  util::TextTable table({"rank", "normalized volume", "zipf head fit"});
  for (const std::size_t rank : {1u, 2u, 5u, 10u, 20u, 50u, 100u, 250u, 400u,
                                 500u}) {
    const double v = report.normalized_volumes[rank - 1];
    table.add_row({std::to_string(rank),
                   util::format_double(v, 10),
                   util::format_double(report.top_half_fit.predict(rank), 10)});
  }
  table.render(std::cout);

  std::cout << "\n";
  bench::print_expectation(
      "Zipf exponent (top half)",
      d == workload::Direction::kDownlink ? "-1.69" : "-1.55",
      "-" + util::format_double(report.top_half_fit.exponent, 2) +
          " (r2=" + util::format_double(report.top_half_fit.r2, 3) + ")");
  bench::print_expectation(
      "volume span rank1/rank500", "~10 orders of magnitude",
      util::format_double(
          std::log10(report.normalized_volumes.front() /
                     report.normalized_volumes.back()),
          1) + " orders");
  bench::print_expectation(
      "bottom-half cutoff (actual/extrapolated at 500)", "<< 1",
      util::format_double(report.tail_cutoff_ratio, 4));
  std::cout << "\n";
}

}  // namespace

// Ablation (--measured-tail): instead of appending the analytic tail law at
// analysis time, actually *generate* traffic for all 500 services and rank
// the measured volumes — the end-to-end variant of Fig. 2.
void measured_tail(const synth::ScenarioConfig& config) {
  std::cout << util::rule("Fig. 2 — fully measured 500-service ranking") << "\n";
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::with_long_tail(500);
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed, 0.0);
  synth::AggregateSink sink(catalog.size(), territory.size());
  gen.generate(sink);

  for (const auto d :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    std::vector<double> volumes;
    volumes.reserve(catalog.size());
    for (std::size_t s = 0; s < catalog.size(); ++s) {
      double total = 0.0;
      for (const double v : sink.tables().national_row(s, d)) total += v;
      volumes.push_back(total);
    }
    const auto ranked = stats::rank_sizes(volumes);
    const auto fit = stats::fit_zipf_top_half(ranked);
    bench::print_expectation(
        std::string("measured-tail Zipf exponent (") +
            std::string(workload::direction_name(d)) + ")",
        d == workload::Direction::kDownlink ? "-1.69" : "-1.55",
        "-" + util::format_double(fit.exponent, 2) +
            " (r2=" + util::format_double(fit.r2, 3) + ")");
    bench::print_expectation(
        "measured volume span", "~10 orders",
        util::format_double(std::log10(ranked.front() / ranked.back()), 1) +
            " orders");
  }
}

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_args(argc, argv, {"snapshot"}, {"measured-tail"});
  std::cout << util::rule("bench fig02_service_ranking") << "\n";
  const core::TrafficDataset dataset = bench::build_dataset(args);
  run_direction(dataset, workload::Direction::kDownlink);
  run_direction(dataset, workload::Direction::kUplink);
  if (args.flags.has("measured-tail")) {
    synth::ScenarioConfig tail_config = args.config;
    // 500 services x communes x 168 h: cap the geography so the sweep stays
    // interactive.
    tail_config.country.commune_count =
        std::min<std::size_t>(tail_config.country.commune_count, 1000);
    measured_tail(tail_config);
  }
  return 0;
}
