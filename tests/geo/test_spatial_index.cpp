#include "geo/spatial_index.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::geo {
namespace {

Territory small_territory() {
  CountryConfig cfg;
  cfg.commune_count = 300;
  cfg.metro_count = 3;
  cfg.side_km = 300.0;
  cfg.largest_metro_population = 200'000;
  cfg.seed = 17;
  return build_synthetic_country(cfg);
}

class SpatialIndexTest : public ::testing::Test {
 protected:
  SpatialIndexTest() : territory_(small_territory()), index_(territory_) {}

  Territory territory_;
  SpatialIndex index_;
};

TEST_F(SpatialIndexTest, WithinRadiusMatchesLinearScanAndIsSorted) {
  util::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const Point p{rng.uniform(0.0, territory_.side_km()),
                  rng.uniform(0.0, territory_.side_km())};
    const double radius = rng.uniform(5.0, 60.0);
    const auto hits = index_.within_radius(p, radius);

    std::size_t expected = 0;
    for (const auto& c : territory_.communes()) {
      if (distance_km(p, c.centroid) <= radius) ++expected;
    }
    EXPECT_EQ(hits.size(), expected);
    for (std::size_t i = 1; i < hits.size(); ++i) {
      EXPECT_LE(distance_km(p, territory_.commune(hits[i - 1]).centroid),
                distance_km(p, territory_.commune(hits[i]).centroid));
    }
  }
}

TEST_F(SpatialIndexTest, ZeroRadiusFindsOnlyExactHits) {
  const Point p = territory_.communes()[5].centroid;
  const auto hits = index_.within_radius(p, 0.0);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front(), 5u);
}

TEST_F(SpatialIndexTest, NeighborsExcludeSelf) {
  const auto neighbors = index_.neighbors(7, 50.0);
  for (const auto id : neighbors) EXPECT_NE(id, 7u);
  // And match within_radius minus self.
  const auto all =
      index_.within_radius(territory_.communes()[7].centroid, 50.0);
  EXPECT_EQ(neighbors.size(), all.size() - 1);
}

TEST_F(SpatialIndexTest, Validation) {
  EXPECT_THROW(SpatialIndex(territory_, 0.0), util::PreconditionError);
  EXPECT_THROW(index_.within_radius({0, 0}, -1.0), util::PreconditionError);
  EXPECT_THROW(index_.neighbors(static_cast<CommuneId>(territory_.size()), 5.0),
               util::PreconditionError);
}

TEST_F(SpatialIndexTest, SizeMatchesTerritory) {
  EXPECT_EQ(index_.size(), territory_.size());
}

}  // namespace
}  // namespace appscope::geo
