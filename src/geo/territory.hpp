// appscope/geo/territory.hpp
//
// The synthetic country: a France-like territory with >36,000 communes,
// metro areas with Zipf-distributed populations, high-speed (TGV) rail lines
// connecting the top metros, and 3G/4G coverage. Substitutes for the real
// French commune geography the paper aggregates over (see DESIGN.md): the
// analyses depend only on the rank-size population statistics, the
// urban/semi-urban/rural/TGV partition, and coverage — all reproduced here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/commune.hpp"
#include "geo/urbanization.hpp"

namespace appscope::geo {

/// A metropolitan area seed (Paris/Lyon/Marseille analogues).
struct Metro {
  std::string name;
  Point center;
  /// Total population of the metro's communes.
  std::uint32_t population = 0;
  /// Characteristic radius of the commune cluster (km).
  double radius_km = 15.0;
};

struct CountryConfig {
  /// Number of communes (France: >36,000). Tests use smaller presets.
  std::size_t commune_count = 36'000;
  /// Number of metro areas.
  std::size_t metro_count = 14;
  /// Country side length (square territory), km.
  double side_km = 1000.0;
  /// Seed for all geographic randomness.
  std::uint64_t seed = 2016;

  /// Population of the largest metro (Paris analogue).
  std::uint32_t largest_metro_population = 2'200'000;
  /// Zipf exponent of the metro rank-size law (France ≈ 1.07).
  double metro_zipf_exponent = 1.07;
  /// Fraction of communes clustered around metros (rest scattered rural).
  double metro_commune_fraction = 0.30;
  /// Share of a metro's population living in its core commune (Paris is a
  /// single commune of 2.2M; without a dominant core the synthetic country
  /// underestimates the paper's Fig. 8 traffic concentration).
  double metro_core_share = 0.40;
  /// Rural commune population: lognormal(mu, sigma), French median ≈ 400.
  double rural_lognormal_mu = 5.75;
  double rural_lognormal_sigma = 1.0;

  /// Rural communes within this distance of a TGV line get the TGV tag.
  double tgv_distance_km = 5.0;
  /// Number of TGV lines radiating from the largest metro.
  std::size_t tgv_line_count = 4;

  UrbanizationThresholds thresholds;

  /// 4G coverage probability by class (3G is near-ubiquitous).
  double p4g_urban = 0.99;
  double p4g_semi = 0.75;
  double p4g_rural = 0.30;
  /// 3G is near-pervasive (the paper's coverage map, Fig. 9 right).
  double p3g_urban = 1.0;
  double p3g_semi = 1.0;
  double p3g_rural = 0.995;
  /// TGV corridors are deliberately covered by operators.
  double p4g_tgv = 0.85;
};

/// Immutable snapshot of the synthetic country.
class Territory {
 public:
  Territory(std::vector<Commune> communes, std::vector<Metro> metros,
            std::vector<Polyline> tgv_lines, double side_km);

  const std::vector<Commune>& communes() const noexcept { return communes_; }
  const std::vector<Metro>& metros() const noexcept { return metros_; }
  const std::vector<Polyline>& tgv_lines() const noexcept { return tgv_lines_; }
  double side_km() const noexcept { return side_km_; }

  std::size_t size() const noexcept { return communes_.size(); }

  /// Commune by id; ids are dense [0, size()).
  const Commune& commune(CommuneId id) const;

  /// Indices of communes in a given urbanization class.
  std::vector<std::size_t> communes_in(Urbanization u) const;

  /// Population living in a given urbanization class.
  std::uint64_t population_in(Urbanization u) const noexcept;

 private:
  std::vector<Commune> communes_;
  std::vector<Metro> metros_;
  std::vector<Polyline> tgv_lines_;
  double side_km_ = 0.0;
};

/// Deterministically builds the synthetic country from `config`.
/// Throws PreconditionError on inconsistent configuration (e.g. fewer
/// communes than metros).
Territory build_synthetic_country(const CountryConfig& config);

}  // namespace appscope::geo
