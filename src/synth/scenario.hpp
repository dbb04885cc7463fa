// appscope/synth/scenario.hpp
//
// Scenario presets bundling the geographic, population and traffic
// configuration of a synthetic measurement campaign.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "geo/territory.hpp"
#include "workload/mobility.hpp"
#include "workload/population.hpp"

namespace appscope::synth {

struct ScenarioConfig {
  /// Identifier of the region/territory this scenario describes. Empty for
  /// the classic single synthetic country; the region::RegionSet presets set
  /// it to the metro-area key ("paris", "lyon", ...). Part of the snapshot
  /// config encoding (format v1.1) and therefore of the config hash, so
  /// snapshots from different regions can never be confused for one another.
  std::string region;
  geo::CountryConfig country;
  workload::PopulationConfig population;
  /// Seed for traffic randomness (spatial residuals, temporal noise).
  std::uint64_t traffic_seed = 4242;
  /// Multiplicative lognormal noise sigma applied per (service, commune,
  /// hour) cell; national aggregates average it out, commune-hour series
  /// keep realistic jitter.
  double temporal_noise_sigma = 0.05;
  /// Apply the commuter presence model (workload::PresenceModel): traffic
  /// follows subscribers into the metro cores during working hours.
  /// Off by default — an extension on top of the paper's static model; the
  /// ablation_mobility bench quantifies its effect.
  bool enable_mobility = false;
  workload::MobilityConfig mobility;
  /// Regional service-popularity skew: each catalog service's per-user rates
  /// are scaled by exp(tilt * z), z in [-0.5, 0.5] being its normalized
  /// downlink rank (head services at +0.5). Positive tilt concentrates the
  /// region's traffic on the popular head, negative tilt fattens the tail —
  /// the per-metro popularity heterogeneity of NetMob23's 20-city
  /// cartography. 0 leaves the paper catalog untouched.
  double popularity_tilt = 0.0;

  /// Small scenario for unit/integration tests (~400 communes).
  static ScenarioConfig test_scale();
  /// Medium scenario for examples (~4,000 communes).
  static ScenarioConfig example_scale();
  /// Full nationwide scenario matching the paper (~36,000 communes).
  static ScenarioConfig paper_scale();
  /// The preset named "test", "example" or "paper"; throws util::InputError
  /// naming the valid scales for any other name.
  static ScenarioConfig for_scale(std::string_view name);
};

}  // namespace appscope::synth
