#include "workload/population.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace appscope::workload {
namespace {

geo::Territory small_territory() {
  geo::CountryConfig cfg;
  cfg.commune_count = 300;
  cfg.metro_count = 3;
  cfg.side_km = 300.0;
  cfg.largest_metro_population = 300'000;
  cfg.seed = 5;
  return geo::build_synthetic_country(cfg);
}

TEST(SubscriberBase, OneEntryPerCommune) {
  const geo::Territory t = small_territory();
  const SubscriberBase subs(t, {});
  EXPECT_EQ(subs.commune_count(), t.size());
  EXPECT_THROW(subs.subscribers(static_cast<geo::CommuneId>(t.size())),
               util::PreconditionError);
}

TEST(SubscriberBase, TotalNearMarketShare) {
  const geo::Territory t = small_territory();
  PopulationConfig cfg;
  cfg.market_share = 0.45;
  const SubscriberBase subs(t, cfg);
  std::uint64_t population = 0;
  for (const geo::Commune& c : t.communes()) population += c.population;
  const double ratio =
      static_cast<double>(subs.total()) / static_cast<double>(population);
  EXPECT_NEAR(ratio, 0.45, 0.05);
}

TEST(SubscriberBase, EveryCommuneHasAtLeastOneSubscriber) {
  const geo::Territory t = small_territory();
  const SubscriberBase subs(t, {});
  for (const auto count : subs.counts()) EXPECT_GE(count, 1u);
}

TEST(SubscriberBase, DeterministicForSeed) {
  const geo::Territory t = small_territory();
  const SubscriberBase a(t, {});
  const SubscriberBase b(t, {});
  EXPECT_EQ(a.counts(), b.counts());
}

TEST(SubscriberBase, ClassTotalsSumToOverallTotal) {
  const geo::Territory t = small_territory();
  const SubscriberBase subs(t, {});
  const auto classes = subs.class_totals(t);
  std::uint64_t by_class = 0;
  for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
    const std::uint64_t in_class =
        subs.total_in(t, static_cast<geo::Urbanization>(u));
    EXPECT_EQ(classes[u], in_class);
    by_class += in_class;
  }
  EXPECT_EQ(by_class, subs.total());
}

TEST(SubscriberBase, SubscribersScaleWithPopulation) {
  const geo::Territory t = small_territory();
  const SubscriberBase subs(t, {});
  // Find the largest and smallest communes; subscribers follow.
  std::size_t big = 0;
  std::size_t small = 0;
  for (std::size_t c = 0; c < t.size(); ++c) {
    if (t.communes()[c].population > t.communes()[big].population) big = c;
    if (t.communes()[c].population < t.communes()[small].population) small = c;
  }
  EXPECT_GT(subs.subscribers(static_cast<geo::CommuneId>(big)),
            subs.subscribers(static_cast<geo::CommuneId>(small)));
}

TEST(SubscriberBase, ConfigValidation) {
  const geo::Territory t = small_territory();
  PopulationConfig bad;
  bad.market_share = 0.0;
  EXPECT_THROW(SubscriberBase(t, bad), util::PreconditionError);
  bad.market_share = 1.5;
  EXPECT_THROW(SubscriberBase(t, bad), util::PreconditionError);
  PopulationConfig jitter;
  jitter.share_jitter = 1.0;
  EXPECT_THROW(SubscriberBase(t, jitter), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::workload
