#include "synth/scenario.hpp"

#include "util/error.hpp"

namespace appscope::synth {

ScenarioConfig ScenarioConfig::test_scale() {
  ScenarioConfig cfg;
  cfg.country.commune_count = 400;
  cfg.country.metro_count = 4;
  cfg.country.side_km = 350.0;
  cfg.country.largest_metro_population = 400'000;
  cfg.country.tgv_line_count = 2;
  cfg.country.tgv_distance_km = 8.0;
  cfg.country.seed = 2016;
  cfg.population.seed = 99;
  cfg.traffic_seed = 4242;
  // At 400 communes a handful of metros dominate the national aggregate, so
  // per-commune jitter is ~10x more visible than nationwide; scale the
  // noise down accordingly to keep the national series realistic.
  cfg.temporal_noise_sigma = 0.02;
  return cfg;
}

ScenarioConfig ScenarioConfig::example_scale() {
  ScenarioConfig cfg;
  cfg.country.commune_count = 4'000;
  cfg.country.metro_count = 8;
  cfg.country.side_km = 700.0;
  cfg.country.largest_metro_population = 1'200'000;
  cfg.country.tgv_line_count = 3;
  cfg.country.seed = 2016;
  cfg.population.seed = 99;
  cfg.traffic_seed = 4242;
  return cfg;
}

ScenarioConfig ScenarioConfig::paper_scale() {
  ScenarioConfig cfg;  // defaults are the nationwide parameters
  return cfg;
}

ScenarioConfig ScenarioConfig::for_scale(std::string_view name) {
  if (name == "test") return test_scale();
  if (name == "example") return example_scale();
  if (name == "paper") return paper_scale();
  throw util::InputError("unknown scale '" + std::string(name) +
                         "' (test|example|paper)");
}

}  // namespace appscope::synth
