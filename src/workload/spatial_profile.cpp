#include "workload/spatial_profile.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::workload {

double class_ratio(const SpatialProfile& profile, geo::Urbanization u) noexcept {
  switch (u) {
    case geo::Urbanization::kUrban: return 1.0;
    case geo::Urbanization::kSemiUrban: return profile.semi_urban_ratio;
    case geo::Urbanization::kRural: return profile.rural_ratio;
    case geo::Urbanization::kTgv: return profile.tgv_ratio;
  }
  return 1.0;
}

bool usable_in(const SpatialProfile& profile, const geo::Commune& commune) noexcept {
  if (profile.requires_4g) return commune.has_4g;
  return commune.has_3g || commune.has_4g;
}

double commune_activity_factor(std::uint64_t seed, geo::CommuneId commune,
                               double sigma) {
  APPSCOPE_REQUIRE(sigma >= 0.0, "commune_activity_factor: sigma < 0");
  util::Rng rng(util::SplitMix64(seed ^ (0xAC71u + commune * 0x9E3779B97F4A7C15ULL)).next());
  // mu = -sigma^2/2 gives a unit-mean lognormal, so the factor redistributes
  // activity across communes without changing class-level means.
  return rng.lognormal(-0.5 * sigma * sigma, sigma);
}

double commune_activity(std::uint64_t seed, const geo::Commune& commune) {
  // Small communes have few potential adopters, so their per-capita usage
  // is dominated by adoption sampling: a village where two residents use a
  // service looks negligible per subscriber while a metropolis averages
  // out. Widening the (unit-mean) activity lognormal as population shrinks
  // reproduces Fig. 8's finding that half of the communes consume a few KB
  // while urban users download tens of MB, without moving class-level
  // means (Fig. 11 slopes).
  constexpr double kAdoptionVariancePopulation = 1500.0;
  const double sigma_scale = std::min(
      8.0, std::sqrt(1.0 + kAdoptionVariancePopulation /
                               std::max(1.0, static_cast<double>(
                                                 commune.population))));
  return commune_activity_factor(seed, commune.id, 0.9 * sigma_scale);
}

double per_user_rate(const SpatialProfile& profile, double urban_base_rate,
                     const geo::Commune& commune, std::uint64_t seed,
                     std::uint64_t service_tag, double activity) {
  if (!usable_in(profile, commune)) return 0.0;

  util::Rng rng(util::SplitMix64(seed ^ (service_tag * 0xD1B54A32D192ED03ULL +
                                         commune.id * 0x9E3779B97F4A7C15ULL))
                    .next());
  if (profile.adoption < 1.0 && !rng.bernoulli(profile.adoption)) return 0.0;

  const double residual =
      rng.lognormal(-0.5 * profile.residual_sigma * profile.residual_sigma,
                    profile.residual_sigma);
  return urban_base_rate * class_ratio(profile, commune.urbanization) *
         std::pow(activity, profile.activity_exponent) * residual;
}

}  // namespace appscope::workload
