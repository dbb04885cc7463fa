#include "workload/spatial_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "geo/territory.hpp"
#include "stats/descriptive.hpp"
#include "synth/scenario.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"

namespace appscope::workload {
namespace {

geo::Commune make_commune(geo::CommuneId id, geo::Urbanization u, bool has_4g,
                          bool has_3g = true) {
  geo::Commune c;
  c.id = id;
  c.urbanization = u;
  c.has_4g = has_4g;
  c.has_3g = has_3g;
  c.population = 1000;
  return c;
}

/// per_user_rate at 1 MB/week, with the commune's activity factor.
double rate(const SpatialProfile& p, const geo::Commune& commune,
            std::uint64_t seed, std::uint64_t service_tag) {
  return per_user_rate(p, 1e6, commune, seed, service_tag,
                       commune_activity(seed, commune));
}

TEST(ClassRatio, MatchesProfileFields) {
  SpatialProfile p;
  p.semi_urban_ratio = 0.9;
  p.rural_ratio = 0.5;
  p.tgv_ratio = 2.5;
  EXPECT_DOUBLE_EQ(class_ratio(p, geo::Urbanization::kUrban), 1.0);
  EXPECT_DOUBLE_EQ(class_ratio(p, geo::Urbanization::kSemiUrban), 0.9);
  EXPECT_DOUBLE_EQ(class_ratio(p, geo::Urbanization::kRural), 0.5);
  EXPECT_DOUBLE_EQ(class_ratio(p, geo::Urbanization::kTgv), 2.5);
}

TEST(UsableIn, CoverageGating) {
  SpatialProfile p;
  p.requires_4g = true;
  EXPECT_TRUE(usable_in(p, make_commune(0, geo::Urbanization::kUrban, true)));
  EXPECT_FALSE(usable_in(p, make_commune(0, geo::Urbanization::kUrban, false)));
  p.requires_4g = false;
  EXPECT_TRUE(usable_in(p, make_commune(0, geo::Urbanization::kRural, false)));
  EXPECT_FALSE(
      usable_in(p, make_commune(0, geo::Urbanization::kRural, false, false)));
}

TEST(CommuneActivityFactor, DeterministicAndUnitMean) {
  const double a = commune_activity_factor(42, 7);
  EXPECT_DOUBLE_EQ(a, commune_activity_factor(42, 7));
  EXPECT_NE(a, commune_activity_factor(42, 8));
  EXPECT_NE(a, commune_activity_factor(43, 7));

  stats::RunningStats rs;
  for (geo::CommuneId c = 0; c < 50'000; ++c) {
    rs.add(commune_activity_factor(42, c, 0.9));
  }
  EXPECT_NEAR(rs.mean(), 1.0, 0.03);
  EXPECT_GT(rs.stddev_population(), 0.5);  // dispersed, not constant
}

TEST(CommuneActivityFactor, ZeroSigmaIsConstantOne) {
  for (geo::CommuneId c = 0; c < 10; ++c) {
    EXPECT_DOUBLE_EQ(commune_activity_factor(1, c, 0.0), 1.0);
  }
  EXPECT_THROW(commune_activity_factor(1, 0, -0.5), util::PreconditionError);
}

TEST(PerUserRate, ZeroWhenCoverageGated) {
  SpatialProfile p;
  p.requires_4g = true;
  const auto commune = make_commune(3, geo::Urbanization::kRural, false);
  EXPECT_DOUBLE_EQ(rate(p, commune, 42, 1), 0.0);
}

TEST(PerUserRate, DeterministicInInputs) {
  SpatialProfile p;
  const auto commune = make_commune(3, geo::Urbanization::kUrban, true);
  const double a = rate(p, commune, 42, 1);
  EXPECT_DOUBLE_EQ(a, rate(p, commune, 42, 1));
  EXPECT_NE(a, rate(p, commune, 42, 2));  // other direction/tag
  EXPECT_NE(a, rate(p, commune, 43, 1));  // other seed
}

/// per_user_rate as it was computed before callers passed the activity
/// factor in: the factor drawn inside, once per (service, direction), after
/// the coverage and adoption gates.
double rate_drawing_activity(const SpatialProfile& profile,
                             double urban_base_rate, const geo::Commune& commune,
                             std::uint64_t seed, std::uint64_t service_tag) {
  if (!usable_in(profile, commune)) return 0.0;
  util::Rng rng(util::SplitMix64(seed ^ (service_tag * 0xD1B54A32D192ED03ULL +
                                         commune.id * 0x9E3779B97F4A7C15ULL))
                    .next());
  if (profile.adoption < 1.0 && !rng.bernoulli(profile.adoption)) return 0.0;
  const double sigma_scale = std::min(
      8.0, std::sqrt(1.0 + 1500.0 / std::max(1.0, static_cast<double>(
                                                       commune.population))));
  const double shared =
      commune_activity_factor(seed, commune.id, 0.9 * sigma_scale);
  const double residual =
      rng.lognormal(-0.5 * profile.residual_sigma * profile.residual_sigma,
                    profile.residual_sigma);
  return urban_base_rate * class_ratio(profile, commune.urbanization) *
         std::pow(shared, profile.activity_exponent) * residual;
}

TEST(PerUserRate, PrecomputedActivityIsBitwiseThePerCallDraw) {
  const synth::ScenarioConfig config = synth::ScenarioConfig::test_scale();
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const ServiceCatalog catalog = ServiceCatalog::paper_services();
  ASSERT_EQ(catalog.size(), 20u);
  const std::uint64_t seed = config.traffic_seed;
  std::size_t coverage_gated = 0;
  std::size_t adoption_gated = 0;
  std::size_t positive = 0;
  for (const geo::Commune& commune : territory.communes()) {
    const double activity = commune_activity(seed, commune);
    for (std::size_t s = 0; s < catalog.size(); ++s) {
      const SpatialProfile& profile = catalog[s].spatial;
      for (const Direction d : {Direction::kDownlink, Direction::kUplink}) {
        const std::uint64_t tag = s * 2 + static_cast<std::uint64_t>(d);
        const double base = catalog[s].urban_rate(d);
        const double expected =
            rate_drawing_activity(profile, base, commune, seed, tag);
        const double got =
            per_user_rate(profile, base, commune, seed, tag, activity);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(expected))
            << "commune " << commune.id << ", service " << s << ", tag " << tag;
        if (!usable_in(profile, commune)) {
          ++coverage_gated;
        } else if (got == 0.0) {
          ++adoption_gated;
        } else {
          ++positive;
        }
      }
    }
  }
  EXPECT_EQ(coverage_gated + adoption_gated + positive,
            territory.size() * catalog.size() * 2);
  EXPECT_GT(coverage_gated, 0u);
  EXPECT_GT(adoption_gated, 0u);
  EXPECT_GT(positive, 0u);
}

TEST(PerUserRate, ClassMeansScaleByRatios) {
  SpatialProfile p;
  p.rural_ratio = 0.5;
  p.tgv_ratio = 2.0;
  p.residual_sigma = 0.4;
  auto mean_over_communes = [&p](geo::Urbanization u) {
    stats::RunningStats rs;
    for (geo::CommuneId c = 0; c < 20'000; ++c) {
      rs.add(rate(p, make_commune(c, u, true), 42, 1));
    }
    return rs.mean();
  };
  const double urban = mean_over_communes(geo::Urbanization::kUrban);
  const double rural = mean_over_communes(geo::Urbanization::kRural);
  const double tgv = mean_over_communes(geo::Urbanization::kTgv);
  EXPECT_NEAR(rural / urban, 0.5, 0.05);
  EXPECT_NEAR(tgv / urban, 2.0, 0.2);
}

TEST(PerUserRate, AdoptionGateZeroesSomeCommunes) {
  SpatialProfile p;
  p.adoption = 0.5;
  std::size_t zeros = 0;
  const std::size_t n = 10'000;
  for (geo::CommuneId c = 0; c < n; ++c) {
    if (rate(p, make_commune(c, geo::Urbanization::kUrban, true), 42, 1) ==
        0.0) {
      ++zeros;
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(n), 0.5, 0.03);
}

TEST(PerUserRate, LowActivityExponentReducesDispersion) {
  SpatialProfile coupled;
  coupled.activity_exponent = 1.0;
  coupled.residual_sigma = 0.1;
  SpatialProfile uniform = coupled;
  uniform.activity_exponent = 0.0;
  auto cv = [](const SpatialProfile& p) {
    stats::RunningStats rs;
    for (geo::CommuneId c = 0; c < 20'000; ++c) {
      geo::Commune commune;
      commune.id = c;
      commune.urbanization = geo::Urbanization::kUrban;
      commune.has_4g = true;
      commune.population = 50'000;  // city-sized: adoption noise negligible
      rs.add(rate(p, commune, 42, 1));
    }
    return rs.stddev_population() / rs.mean();
  };
  EXPECT_GT(cv(coupled), 2.0 * cv(uniform));
}

}  // namespace
}  // namespace appscope::workload
