// appscope/workload/spatial_profile.hpp
//
// Where (and how much) a service is consumed. The model reproduces the
// paper's spatial findings:
//  - per-subscriber usage depends on the urbanization level: semi-urban ≈
//    urban, rural ≈ half, TGV ≥ 2x (Fig. 11 top);
//  - per-commune per-user traffic is highly dispersed yet *correlated
//    across services* (Fig. 10), driven by a shared per-commune "digital
//    activity" factor; each service couples to it through an exponent
//    (iCloud couples weakly → uniform over the country → outlier), and adds
//    a service-specific residual;
//  - high-end services can be gated on 4G coverage (Netflix → absent from
//    most rural communes → second outlier, Fig. 9 middle).
#pragma once

#include <cstdint>

#include "geo/commune.hpp"

namespace appscope::workload {

struct SpatialProfile {
  /// Class multipliers relative to urban (Fig. 11 top bars).
  double semi_urban_ratio = 0.95;
  double rural_ratio = 0.5;
  double tgv_ratio = 2.2;
  /// Coupling exponent to the shared per-commune activity factor
  /// (1 = fully driven by it, 0 = uniform over the country).
  double activity_exponent = 1.0;
  /// Lognormal sigma of the service-specific per-commune residual.
  double residual_sigma = 0.45;
  /// The service is unusable without 4G coverage (e.g. long-form HD video).
  bool requires_4g = false;
  /// Probability that a commune adopts the service at all (1 = everywhere).
  double adoption = 1.0;
};

/// Mean per-user rate multiplier for an urbanization class.
double class_ratio(const SpatialProfile& profile, geo::Urbanization u) noexcept;

/// True if the service can be used at all in the commune (coverage gate).
bool usable_in(const SpatialProfile& profile, const geo::Commune& commune) noexcept;

/// The shared per-commune activity factor: lognormal with unit mean,
/// deterministic in (seed, commune id). Urbanization does NOT enter here —
/// class effects are explicit in class_ratio — this factor models residual
/// commune-to-commune heterogeneity (demographics, tourism, workplaces).
double commune_activity_factor(std::uint64_t seed, geo::CommuneId commune,
                               double sigma = 0.9);

/// The activity factor per_user_rate applies in a commune: the shared
/// factor at 0.9 times a sigma scale that widens as the population shrinks
/// (up to 8x), so small communes, whose usage is dominated by a few
/// adopters, disperse more. Every service and direction of a commune shares
/// it, so callers compute it once per commune.
double commune_activity(std::uint64_t seed, const geo::Commune& commune);

/// Full per-commune per-user weekly rate for the service (bytes):
/// urban_base_rate × class_ratio × activity^exponent × residual × adoption
/// gate, zeroed when coverage gating applies. `activity` is the commune's
/// commune_activity(seed, commune). Deterministic in (seed, commune,
/// service_tag); callers encode service index and direction into the tag
/// so downlink and uplink draw independent residuals.
double per_user_rate(const SpatialProfile& profile, double urban_base_rate,
                     const geo::Commune& commune, std::uint64_t seed,
                     std::uint64_t service_tag, double activity);

}  // namespace appscope::workload
