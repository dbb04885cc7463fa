// Fig. 10 reproduction: per-user traffic spatial correlation between
// services. Left: CDF of pairwise Pearson r² over all service pairs (paper:
// mean 0.60 downlink / 0.53 uplink). Middle/right: the full pairwise r²
// matrices, where Netflix (rural absence) and iCloud (uniform uplink push)
// emerge as the low-correlation outliers.
#include <iostream>

#include "bench_common.hpp"
#include "core/spatial_analysis.hpp"
#include "stats/bootstrap.hpp"
#include "stats/distribution.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

namespace {

void run_direction(const core::TrafficDataset& dataset, workload::Direction d) {
  const core::SpatialCorrelationReport report =
      core::analyze_spatial_correlation(dataset, d);

  std::cout << util::rule(std::string("Fig. 10 — pairwise r2 CDF, ") +
                          std::string(workload::direction_name(d)))
            << "\n";
  const stats::Ecdf cdf(report.pairwise_values);
  util::TextTable table({"r2 <=", "CDF"});
  for (const double x : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    table.add_row({util::format_double(x, 1), util::format_double(cdf(x), 2)});
  }
  table.render(std::cout);
  const stats::BootstrapCi ci = stats::bootstrap_mean_ci(report.pairwise_values);
  std::cout << "  mean r2 = " << util::format_double(report.mean_r2, 2)
            << " (95% bootstrap CI " << util::format_double(ci.lower, 2) << ".."
            << util::format_double(ci.upper, 2) << "), median r2 = "
            << util::format_double(report.median_r2, 2) << "\n\n";

  std::cout << util::rule(std::string("Fig. 10 — per-service mean r2, ") +
                          std::string(workload::direction_name(d)))
            << "\n";
  util::TextTable services({"service", "mean off-diagonal r2", "bar"});
  for (std::size_t s = 0; s < dataset.service_count(); ++s) {
    services.add_row({dataset.catalog()[s].name,
                      util::format_double(report.service_mean_r2[s], 2),
                      util::ascii_bar(report.service_mean_r2[s], 1.0, 24)});
  }
  services.render(std::cout);

  std::cout << "  lowest-correlation outliers: "
            << dataset.catalog()[report.outliers[0]].name << ", "
            << dataset.catalog()[report.outliers[1]].name << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, {"snapshot"});
  std::cout << util::rule("bench fig10_spatial_correlation") << "\n";
  const core::TrafficDataset dataset = bench::build_dataset(args);
  run_direction(dataset, workload::Direction::kDownlink);
  run_direction(dataset, workload::Direction::kUplink);

  const auto dl =
      core::analyze_spatial_correlation(dataset, workload::Direction::kDownlink);
  const auto ul =
      core::analyze_spatial_correlation(dataset, workload::Direction::kUplink);
  bench::print_expectation("mean pairwise r2 (downlink)", "0.60",
                           util::format_double(dl.mean_r2, 2));
  bench::print_expectation("mean pairwise r2 (uplink)", "0.53",
                           util::format_double(ul.mean_r2, 2));
  bench::print_expectation(
      "outliers", "Netflix and iCloud",
      dataset.catalog()[dl.outliers[0]].name + " and " +
          dataset.catalog()[dl.outliers[1]].name);
  return 0;
}
