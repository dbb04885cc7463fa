#include "workload/mobility.hpp"

#include <gtest/gtest.h>

#include "core/dataset.hpp"
#include "util/error.hpp"

namespace appscope::workload {
namespace {

class MobilityTest : public ::testing::Test {
 protected:
  MobilityTest()
      : territory_(geo::build_synthetic_country([] {
          geo::CountryConfig cfg;
          cfg.commune_count = 300;
          cfg.metro_count = 3;
          cfg.side_km = 300.0;
          cfg.largest_metro_population = 300'000;
          cfg.seed = 12;
          return cfg;
        }())),
        subscribers_(territory_, {}),
        model_(territory_, subscribers_) {}

  geo::CommuneId core_commune() const {
    // The most populous commune of metro 0.
    geo::CommuneId best = 0;
    for (const auto& c : territory_.communes()) {
      if (c.metro == 0 &&
          c.population > territory_.commune(best).population) {
        best = c.id;
      }
    }
    return best;
  }

  geo::CommuneId satellite_commune() const {
    const auto core = core_commune();
    for (const auto& c : territory_.communes()) {
      if (c.metro == 0 && c.id != core) return c.id;
    }
    ADD_FAILURE() << "no satellite commune";
    return 0;
  }

  geo::Territory territory_;
  SubscriberBase subscribers_;
  PresenceModel model_;
};

TEST_F(MobilityTest, WeekendAndNightPresenceIsOne) {
  for (geo::CommuneId c : {core_commune(), satellite_commune()}) {
    EXPECT_DOUBLE_EQ(model_.presence(c, 13), 1.0);           // Saturday midday
    EXPECT_NEAR(model_.presence(c, 2 * 24 + 2), 1.0, 5e-3);  // Monday 2am
  }
}

TEST_F(MobilityTest, WorkdayMovesPeopleIntoTheCore) {
  const std::size_t monday_noon = 2 * 24 + 12;
  EXPECT_GT(model_.presence(core_commune(), monday_noon), 1.05);
  EXPECT_LT(model_.presence(satellite_commune(), monday_noon), 0.75);
}

TEST_F(MobilityTest, RuralScatterUnaffected) {
  for (const auto& c : territory_.communes()) {
    if (c.metro != geo::Commune::kNoMetro) continue;
    EXPECT_DOUBLE_EQ(model_.presence(c.id, 2 * 24 + 12), 1.0);
    break;
  }
}

TEST_F(MobilityTest, PresenceConservesTotalSubscribers) {
  // The model only moves people around: presence-weighted subscribers sum
  // to the same total at every hour.
  const auto present = [this](std::size_t h) {
    double total = 0.0;
    for (geo::CommuneId c = 0; c < territory_.size(); ++c) {
      total += model_.presence(c, h) *
               static_cast<double>(subscribers_.subscribers(c));
    }
    return total;
  };
  const double weekend = present(13);
  for (const std::size_t h : {2 * 24 + 12, 3 * 24 + 9, 4 * 24 + 17}) {
    EXPECT_NEAR(present(h), weekend, 1e-6 * weekend) << h;
  }
}

TEST_F(MobilityTest, WorkWindowShape) {
  // Zero on weekends, ~1 at midday, rising through the morning.
  EXPECT_DOUBLE_EQ(model_.work_window(13), 0.0);
  EXPECT_GT(model_.work_window(2 * 24 + 12), 0.9);
  EXPECT_LT(model_.work_window(2 * 24 + 6), 0.2);
  EXPECT_GT(model_.work_window(2 * 24 + 12), model_.work_window(2 * 24 + 7));
}

TEST_F(MobilityTest, ConfigValidation) {
  MobilityConfig bad;
  bad.commuter_fraction = 1.0;
  EXPECT_THROW(PresenceModel(territory_, subscribers_, bad),
               util::PreconditionError);
  bad = MobilityConfig{};
  bad.work_start = 18.0;
  bad.work_end = 9.0;
  EXPECT_THROW(PresenceModel(territory_, subscribers_, bad),
               util::PreconditionError);
}

TEST(MobilityDataset, EnableMobilityShiftsDaytimeTrafficToCores) {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.temporal_noise_sigma = 0.0;
  const core::TrafficDataset off = core::TrafficDataset::generate(cfg);
  cfg.enable_mobility = true;
  const core::TrafficDataset on = core::TrafficDataset::generate(cfg);

  // Identify the largest urban commune (a metro core).
  geo::CommuneId core = 0;
  for (const auto& c : off.territory().communes()) {
    if (c.population > off.territory().commune(core).population) core = c.id;
  }
  const auto yt = *off.catalog().find("YouTube");
  const double core_off = off.commune_total(yt, core, workload::Direction::kDownlink);
  const double core_on = on.commune_total(yt, core, workload::Direction::kDownlink);
  EXPECT_GT(core_on, core_off * 1.02);

  // National weekly totals stay comparable (people moved, not created)...
  const double total_off = off.direction_total(workload::Direction::kDownlink);
  const double total_on = on.direction_total(workload::Direction::kDownlink);
  EXPECT_NEAR(total_on / total_off, 1.0, 0.05);
  // ...and both datasets stay internally coherent.
  EXPECT_NO_THROW(on.validate());
}

}  // namespace
}  // namespace appscope::workload
