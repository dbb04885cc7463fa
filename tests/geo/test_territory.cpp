#include "geo/territory.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace appscope::geo {
namespace {

CountryConfig small_config() {
  CountryConfig cfg;
  cfg.commune_count = 500;
  cfg.metro_count = 4;
  cfg.side_km = 400.0;
  cfg.largest_metro_population = 500'000;
  cfg.seed = 7;
  cfg.tgv_distance_km = 8.0;
  return cfg;
}

TEST(Territory, BuildsRequestedCommuneCount) {
  const Territory t = build_synthetic_country(small_config());
  EXPECT_EQ(t.size(), 500u);
  EXPECT_EQ(t.metros().size(), 4u);
  EXPECT_FALSE(t.tgv_lines().empty());
}

TEST(Territory, CommuneIdsAreDense) {
  const Territory t = build_synthetic_country(small_config());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.communes()[i].id, i);
    EXPECT_EQ(&t.commune(static_cast<CommuneId>(i)), &t.communes()[i]);
  }
  EXPECT_THROW(t.commune(500), util::PreconditionError);
}

TEST(Territory, DeterministicForSeed) {
  const Territory a = build_synthetic_country(small_config());
  const Territory b = build_synthetic_country(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.communes()[i].population, b.communes()[i].population);
    EXPECT_EQ(a.communes()[i].urbanization, b.communes()[i].urbanization);
    EXPECT_DOUBLE_EQ(a.communes()[i].centroid.x_km, b.communes()[i].centroid.x_km);
  }
}

TEST(Territory, DifferentSeedsDiffer) {
  CountryConfig cfg = small_config();
  const Territory a = build_synthetic_country(cfg);
  cfg.seed = 8;
  const Territory b = build_synthetic_country(cfg);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.communes()[i].population != b.communes()[i].population) ++differing;
  }
  EXPECT_GT(differing, a.size() / 2);
}

TEST(Territory, AllClassesPresent) {
  const Territory t = build_synthetic_country(small_config());
  const auto count = [&t](Urbanization u) { return t.communes_in(u).size(); };
  EXPECT_GT(count(Urbanization::kUrban), 0u);
  EXPECT_GT(count(Urbanization::kSemiUrban), 0u);
  EXPECT_GT(count(Urbanization::kRural), 0u);
  EXPECT_GT(count(Urbanization::kTgv), 0u);
  // Rural should dominate commune counts, as in France.
  EXPECT_GT(count(Urbanization::kRural), count(Urbanization::kUrban));
}

TEST(Territory, MetroPopulationsFollowDecreasingRankSize) {
  const Territory t = build_synthetic_country(small_config());
  for (std::size_t m = 1; m < t.metros().size(); ++m) {
    EXPECT_LE(t.metros()[m].population, t.metros()[m - 1].population);
  }
}

TEST(Territory, TgvCommunesAreNearLines) {
  CountryConfig cfg = small_config();
  const Territory t = build_synthetic_country(cfg);
  for (const auto& c : t.communes()) {
    if (c.urbanization != Urbanization::kTgv) continue;
    double best = 1e18;
    for (const auto& line : t.tgv_lines()) {
      best = std::min(best, line.distance_km(c.centroid));
    }
    EXPECT_LE(best, cfg.tgv_distance_km + 1e-9);
  }
}

TEST(Territory, CommunesInsideCountry) {
  const Territory t = build_synthetic_country(small_config());
  for (const auto& c : t.communes()) {
    EXPECT_GE(c.centroid.x_km, 0.0);
    EXPECT_LE(c.centroid.x_km, t.side_km());
    EXPECT_GE(c.centroid.y_km, 0.0);
    EXPECT_LE(c.centroid.y_km, t.side_km());
  }
}

TEST(Territory, UrbanCoverageBetterThanRural) {
  const Territory t = build_synthetic_country(small_config());
  auto coverage_rate = [&t](Urbanization u) {
    const auto ids = t.communes_in(u);
    if (ids.empty()) return 0.0;
    std::size_t with_4g = 0;
    for (const std::size_t i : ids) with_4g += t.communes()[i].has_4g ? 1 : 0;
    return static_cast<double>(with_4g) / static_cast<double>(ids.size());
  };
  EXPECT_GT(coverage_rate(Urbanization::kUrban), 0.9);
  EXPECT_LT(coverage_rate(Urbanization::kRural), 0.6);
  EXPECT_GT(coverage_rate(Urbanization::kUrban),
            coverage_rate(Urbanization::kRural));
}

TEST(Territory, PopulationAccounting) {
  const Territory t = build_synthetic_country(small_config());
  std::uint64_t by_class = 0;
  for (std::size_t u = 0; u < kUrbanizationCount; ++u) {
    by_class += t.population_in(static_cast<Urbanization>(u));
  }
  std::uint64_t total = 0;
  for (const Commune& c : t.communes()) total += c.population;
  EXPECT_EQ(by_class, total);
  EXPECT_GT(total, 100'000u);
}

TEST(Territory, ConfigValidation) {
  CountryConfig cfg = small_config();
  cfg.commune_count = 8;
  EXPECT_THROW(build_synthetic_country(cfg), util::PreconditionError);
  cfg = small_config();
  cfg.metro_count = 0;
  EXPECT_THROW(build_synthetic_country(cfg), util::PreconditionError);
  cfg = small_config();
  cfg.metro_commune_fraction = 1.5;
  EXPECT_THROW(build_synthetic_country(cfg), util::PreconditionError);
}

TEST(Territory, CommunesInFilterIsConsistent) {
  const Territory t = build_synthetic_country(small_config());
  std::size_t total = 0;
  for (std::size_t u = 0; u < kUrbanizationCount; ++u) {
    for (const std::size_t i : t.communes_in(static_cast<Urbanization>(u))) {
      EXPECT_EQ(t.communes()[i].urbanization, static_cast<Urbanization>(u));
      ++total;
    }
  }
  EXPECT_EQ(total, t.size());
}

}  // namespace
}  // namespace appscope::geo
