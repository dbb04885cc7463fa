// what_if_4g — a counterfactual the paper motivates but cannot run on real
// data: the Netflix map follows the 4G coverage (Fig. 9), so what happens
// to the high-end service if the operator upgrades rural 4G?
//
// We regenerate the same country with rural 4G coverage swept from today's
// ~30% to near-universal, and track Netflix's footprint, its spatial
// correlation to the other services (its Fig. 10 outlier status), and the
// rural per-user ratio.
//
// Run:  ./what_if_4g               (test scale)
//       ./what_if_4g --scale=example
#include <iostream>

#include "core/spatial_analysis.hpp"
#include "core/urbanization_analysis.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

int main(int argc, char** argv) {
  synth::ScenarioConfig base;
  try {
    const util::CliArgs args(argc, argv, {"scale"});
    if (args.has("help")) {
      std::cout << args.help();
      return 0;
    }
    base = synth::ScenarioConfig::for_scale(args.get_string("scale", "test"));
  } catch (const util::InputError& e) {
    std::cerr << "what_if_4g: " << e.what() << "\n";
    return 1;
  }
  std::cout << util::rule("appscope example: what if rural 4G were upgraded?")
            << "\n";

  util::TextTable table({"rural 4G coverage", "Netflix zero-traffic communes",
                         "Netflix mean spatial r2", "Netflix rural/urban",
                         "still an outlier?"});

  for (const double p4g_rural : {0.30, 0.50, 0.70, 0.90, 0.99}) {
    synth::ScenarioConfig config = base;
    config.country.p4g_rural = p4g_rural;
    const core::TrafficDataset dataset = core::TrafficDataset::generate(config);
    const auto netflix = *dataset.catalog().find("Netflix");

    const core::UsageMapReport map = core::analyze_usage_map(
        dataset, netflix, workload::Direction::kDownlink);
    const core::SpatialCorrelationReport corr =
        core::analyze_spatial_correlation(dataset, workload::Direction::kDownlink);
    const core::UrbanizationReport urb =
        core::analyze_urbanization(dataset, workload::Direction::kDownlink);

    const bool outlier =
        std::find(corr.outliers.begin(), corr.outliers.end(), netflix) !=
        corr.outliers.end();
    const double rural_ratio =
        urb.services[netflix]
            .volume_ratio[static_cast<std::size_t>(geo::Urbanization::kRural)];

    table.add_row({util::format_percent(p4g_rural, 0),
                   util::format_percent(map.absent_commune_fraction, 1),
                   util::format_double(corr.service_mean_r2[netflix], 2),
                   util::format_double(rural_ratio, 2),
                   outlier ? "yes" : "no"});
  }
  table.render(std::cout);

  std::cout << "\nReading: coverage alone shrinks the Netflix dead zones and "
               "lifts its rural\nusage, but the adoption gap (the other half "
               "of the paper's explanation)\nkeeps it below mainstream "
               "services even at full coverage.\n";
  return 0;
}
