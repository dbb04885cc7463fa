#include "core/dataset.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/snapshot.hpp"
#include "net/simulator.hpp"
#include "support/cell_fold.hpp"
#include "support/temp_dir.hpp"
#include "util/error.hpp"

namespace appscope::core {
namespace {

/// Shared test-scale dataset (generation is the expensive part; build once).
const TrafficDataset& test_dataset() {
  static const TrafficDataset dataset =
      TrafficDataset::generate(synth::ScenarioConfig::test_scale());
  return dataset;
}

TEST(TrafficDataset, DimensionsMatchScenario) {
  const auto& d = test_dataset();
  EXPECT_EQ(d.service_count(), 20u);
  EXPECT_EQ(d.commune_count(), 400u);
  EXPECT_EQ(d.territory().size(), d.commune_count());
  EXPECT_EQ(d.subscribers().commune_count(), d.commune_count());
}

TEST(TrafficDataset, ValidatePasses) {
  EXPECT_NO_THROW(test_dataset().validate());
}

TEST(TrafficDataset, NationalSeriesConsistentWithTotals) {
  const auto& d = test_dataset();
  for (const auto dir :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    double sum = 0.0;
    for (std::size_t s = 0; s < d.service_count(); ++s) {
      sum += d.national_total(s, dir);
    }
    EXPECT_NEAR(sum, d.direction_total(dir), 1e-6 * sum);
  }
}

TEST(TrafficDataset, CommuneTotalsSumToNationalTotal) {
  const auto& d = test_dataset();
  const auto yt = *d.catalog().find("YouTube");
  const auto totals = d.commune_totals(yt, workload::Direction::kDownlink);
  double sum = 0.0;
  for (const double v : totals) sum += v;
  EXPECT_NEAR(sum, d.national_total(yt, workload::Direction::kDownlink),
              1e-6 * sum);
}

TEST(TrafficDataset, CommuneTotalRejectsOutOfRangeIndices) {
  const auto& d = test_dataset();
  const auto down = workload::Direction::kDownlink;
  EXPECT_THROW(
      d.commune_total(0, static_cast<geo::CommuneId>(d.commune_count()), down),
      util::PreconditionError);
  EXPECT_THROW(d.commune_total(d.service_count(), 0, down),
               util::PreconditionError);
}

TEST(TrafficDataset, PerUserVectorDividesBySubscribers) {
  const auto& d = test_dataset();
  const auto yt = *d.catalog().find("YouTube");
  const auto totals = d.commune_totals(yt, workload::Direction::kDownlink);
  const auto per_user = d.per_user_commune_vector(yt, workload::Direction::kDownlink);
  ASSERT_EQ(per_user.size(), totals.size());
  for (std::size_t c = 0; c < totals.size(); ++c) {
    const double subs =
        static_cast<double>(d.subscribers().subscribers(static_cast<geo::CommuneId>(c)));
    EXPECT_NEAR(per_user[c] * subs, totals[c], 1e-9 * (totals[c] + 1.0));
  }
}

TEST(TrafficDataset, UrbanizationSeriesCoverAllClasses) {
  const auto& d = test_dataset();
  const auto fb = *d.catalog().find("Facebook");
  for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
    const auto& series = d.urbanization_series(
        fb, static_cast<geo::Urbanization>(u), workload::Direction::kDownlink);
    double sum = 0.0;
    for (const double v : series) sum += v;
    EXPECT_GT(sum, 0.0) << "class " << u;
  }
}

TEST(TrafficDataset, PerUserUrbanizationSeriesScales) {
  const auto& d = test_dataset();
  const auto fb = *d.catalog().find("Facebook");
  const auto raw = d.urbanization_series(fb, geo::Urbanization::kUrban,
                                         workload::Direction::kDownlink);
  const auto per_user = d.per_user_urbanization_series(
      fb, geo::Urbanization::kUrban, workload::Direction::kDownlink);
  const auto subs = d.subscribers().total_in(d.territory(), geo::Urbanization::kUrban);
  for (std::size_t h = 0; h < raw.size(); ++h) {
    EXPECT_NEAR(per_user[h] * static_cast<double>(subs), raw[h],
                1e-9 * (raw[h] + 1.0));
  }
}

/// An 80-commune scenario and one simulated week of its probe records.
struct SimulatedWeek {
  synth::ScenarioConfig config = [] {
    auto cfg = synth::ScenarioConfig::test_scale();
    cfg.country.commune_count = 80;
    cfg.country.metro_count = 2;
    return cfg;
  }();
  geo::Territory territory = geo::build_synthetic_country(config.country);
  workload::SubscriberBase subscribers{territory, config.population};
  workload::ServiceCatalog catalog = workload::ServiceCatalog::paper_services();
  std::vector<net::UsageRecord> records;

  SimulatedWeek() {
    net::BaseStationRegistry cells(territory, {});
    net::DpiEngine dpi(catalog);
    net::SessionSimConfig sim_cfg;
    sim_cfg.session_thinning = 0.01;
    net::SessionSimulator sim(territory, subscribers, catalog, cells, dpi,
                              sim_cfg);
    sim.run([this](const net::UsageRecord& r) { records.push_back(r); });
  }

  TrafficDataset dataset(const std::vector<net::UsageRecord>& rs) const {
    return TrafficDataset::from_usage_records(config, territory, subscribers,
                                              catalog, rs);
  }
};

const SimulatedWeek& simulated_week() {
  static const SimulatedWeek week;
  return week;
}

TEST(TrafficDataset, FromUsageRecordsBuildsCoherentDataset) {
  const SimulatedWeek& week = simulated_week();
  const std::vector<net::UsageRecord>& records = week.records;
  ASSERT_FALSE(records.empty());

  const TrafficDataset d = week.dataset(records);
  EXPECT_NO_THROW(d.validate());
  EXPECT_GT(d.direction_total(workload::Direction::kDownlink), 0.0);
  // Unclassified records were dropped: dataset volume < probe volume.
  double total_records = 0.0;
  for (const auto& r : records) {
    total_records +=
        static_cast<double>(r.downlink_bytes + r.uplink_bytes);
  }
  EXPECT_LT(d.direction_total(workload::Direction::kDownlink) +
                d.direction_total(workload::Direction::kUplink),
            total_records);
}

TEST(TrafficDataset, FromUsageRecordsMatchesTheCellFold) {
  // Every classified record is one cell of the reference fold; the tables
  // must hold its bits exactly. A snapshot round trip (bitwise) exposes
  // the tables, cell count included.
  const SimulatedWeek& week = simulated_week();
  synth::AggregateTables<double> expected(week.catalog.size(),
                                          week.territory.size());
  for (const net::UsageRecord& r : week.records) {
    if (!r.service) continue;
    test_support::add_cell(expected, *r.service, r.commune,
                           week.territory.commune(r.commune).urbanization,
                           r.week_hour, static_cast<double>(r.downlink_bytes),
                           static_cast<double>(r.uplink_bytes));
  }
  ASSERT_GT(expected.cells, 0u);

  const std::string path =
      test_support::temp_path("usage_records.snapshot").string();
  week.dataset(week.records).save(path);
  test_support::expect_bitwise_equal(io::read_snapshot(path).aggregates,
                                     expected);
}

TEST(TrafficDataset, FromUsageRecordsRejectsHourPastTheWeek) {
  // week_hour indexes the hourly tables; one past the week must not land
  // in a neighbouring row.
  const SimulatedWeek& week = simulated_week();
  net::UsageRecord r;
  r.service = 0;
  r.commune = 3;
  r.week_hour = ts::kHoursPerWeek;
  r.downlink_bytes = 1000;
  r.uplink_bytes = 10;
  EXPECT_THROW(week.dataset({r}), util::PreconditionError);
  r.week_hour = ts::kHoursPerWeek - 1;
  EXPECT_NO_THROW(week.dataset({r}));
}

}  // namespace
}  // namespace appscope::core
