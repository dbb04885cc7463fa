// Ablation: the spatial-profile design choices behind Fig. 10. The paper's
// "services correlate strongly in space" emerges in the model from a shared
// per-commune activity factor that every service couples to. This bench
// sweeps the coupling (activity_exponent) and the service-specific
// dispersion (residual_sigma) and reports the resulting mean pairwise r² —
// demonstrating that the calibrated values are load-bearing, not cosmetic.
#include <iostream>

#include "bench_common.hpp"
#include "core/spatial_analysis.hpp"
#include "stats/correlation.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

namespace {

/// Rebuilds the paper catalog with every service's spatial coupling scaled.
workload::ServiceCatalog scaled_catalog(double exponent_scale,
                                        double residual_scale) {
  const workload::ServiceCatalog base = workload::ServiceCatalog::paper_services();
  std::vector<workload::ServiceSpec> specs = base.services();
  for (auto& spec : specs) {
    spec.spatial.activity_exponent *= exponent_scale;
    spec.spatial.residual_sigma *= residual_scale;
  }
  return workload::ServiceCatalog(std::move(specs));
}

double mean_r2_for(const geo::Territory& territory,
                   const workload::SubscriberBase& subscribers,
                   const workload::ServiceCatalog& catalog,
                   std::uint64_t seed) {
  const synth::AnalyticGenerator gen(territory, subscribers, catalog, seed, 0.0);
  std::vector<std::vector<double>> per_user(catalog.size());
  for (std::size_t s = 0; s < catalog.size(); ++s) {
    per_user[s].resize(territory.size());
    for (geo::CommuneId c = 0; c < territory.size(); ++c) {
      per_user[s][c] =
          gen.expected_weekly_per_user(s, c, workload::Direction::kDownlink);
    }
  }
  const la::Matrix r2 = stats::pairwise_r2(per_user);
  return stats::mean_off_diagonal(r2);
}

}  // namespace

int main(int argc, char** argv) {
  const synth::ScenarioConfig config = bench::parse_args(argc, argv).config;
  std::cout << util::rule("bench ablation_spatial_model") << "\n";
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  std::cout << "territory: " << territory.size() << " communes\n\n";

  std::cout << util::rule("sweep 1 — coupling to the shared activity factor")
            << "\n";
  util::TextTable sweep1({"activity_exponent scale", "mean pairwise r2"});
  for (const double scale : {0.0, 0.25, 0.5, 0.75, 1.0, 1.5}) {
    const double r2 = mean_r2_for(territory, subscribers,
                                  scaled_catalog(scale, 1.0), config.traffic_seed);
    sweep1.add_row({util::format_double(scale, 2), util::format_double(r2, 3)});
  }
  sweep1.render(std::cout);
  std::cout << "  paper target at scale 1.0: ~0.60 downlink. Decoupling the\n"
               "  services (scale 0) collapses the Fig. 10 correlation.\n\n";

  std::cout << util::rule("sweep 2 — service-specific residual dispersion")
            << "\n";
  util::TextTable sweep2({"residual_sigma scale", "mean pairwise r2"});
  for (const double scale : {0.25, 0.5, 1.0, 2.0, 3.0}) {
    const double r2 = mean_r2_for(territory, subscribers,
                                  scaled_catalog(1.0, scale), config.traffic_seed);
    sweep2.add_row({util::format_double(scale, 2), util::format_double(r2, 3)});
  }
  sweep2.render(std::cout);
  std::cout << "  larger idiosyncratic residuals drown the shared factor and\n"
               "  pull the correlation down.\n";
  return 0;
}
