#include "synth/generator.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "io/serialize.hpp"
#include "net/simulator.hpp"
#include "stats/correlation.hpp"
#include "support/cell_fold.hpp"
#include "synth/scenario.hpp"
#include "support/metrics_on.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace appscope::synth {
namespace {

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorTest()
      : config_(ScenarioConfig::test_scale()),
        territory_(geo::build_synthetic_country(config_.country)),
        subscribers_(territory_, config_.population),
        catalog_(workload::ServiceCatalog::paper_services()) {}

  AggregateSink make_sink() const {
    return AggregateSink(catalog_.size(), territory_.size());
  }
  static double total(const AggregateSink& sink) {
    return sink.tables().downlink_total + sink.tables().uplink_total;
  }

  ScenarioConfig config_;
  geo::Territory territory_;
  workload::SubscriberBase subscribers_;
  workload::ServiceCatalog catalog_;
};

TEST_F(GeneratorTest, StreamsFullWeekForEveryUsableService) {
  const AnalyticGenerator gen(territory_, subscribers_, catalog_,
                              config_.traffic_seed, 0.0);
  AggregateSink sink = make_sink();
  gen.generate(sink);

  EXPECT_GT(total(sink), 0.0);
  // YouTube (universal service) must produce traffic in every hour.
  const auto yt = *catalog_.find("YouTube");
  for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
    EXPECT_GT(sink.tables().national_row(yt, workload::Direction::kDownlink)[h],
              0.0)
        << h;
  }
}

TEST_F(GeneratorTest, DeterministicForSeed) {
  const AnalyticGenerator gen(territory_, subscribers_, catalog_,
                              config_.traffic_seed, 0.05);
  AggregateSink a = make_sink();
  gen.generate(a);
  AggregateSink b = make_sink();
  gen.generate(b);
  EXPECT_DOUBLE_EQ(total(a), total(b));
}

TEST_F(GeneratorTest, NoisePreservesMeanVolume) {
  const AnalyticGenerator noiseless(territory_, subscribers_, catalog_,
                                    config_.traffic_seed, 0.0);
  const AnalyticGenerator noisy(territory_, subscribers_, catalog_,
                                config_.traffic_seed, 0.3);
  AggregateSink a = make_sink();
  noiseless.generate(a);
  AggregateSink b = make_sink();
  noisy.generate(b);
  EXPECT_NEAR(total(b) / total(a), 1.0, 0.02);
}

TEST_F(GeneratorTest, ExpectedPerUserRateIsDeterministicAndGated) {
  const AnalyticGenerator gen(territory_, subscribers_, catalog_,
                              config_.traffic_seed, 0.0);
  const auto netflix = *catalog_.find("Netflix");
  std::size_t gated = 0;
  for (geo::CommuneId c = 0; c < territory_.size(); ++c) {
    const double r =
        gen.expected_weekly_per_user(netflix, c, workload::Direction::kDownlink);
    EXPECT_DOUBLE_EQ(r, gen.expected_weekly_per_user(
                            netflix, c, workload::Direction::kDownlink));
    if (r == 0.0) ++gated;
    if (!territory_.commune(c).has_4g) EXPECT_DOUBLE_EQ(r, 0.0);
  }
  EXPECT_GT(gated, territory_.size() / 4);  // Netflix absent from many communes
}

TEST_F(GeneratorTest, UplinkShareMatchesCatalogDesign) {
  const AnalyticGenerator gen(territory_, subscribers_, catalog_,
                              config_.traffic_seed, 0.0);
  AggregateSink sink = make_sink();
  gen.generate(sink);
  EXPECT_NEAR(sink.tables().uplink_total / total(sink), 1.0 / 21.0, 0.015);
}

TEST_F(GeneratorTest, TgvCommunesFollowTrainSchedule) {
  const AnalyticGenerator gen(territory_, subscribers_, catalog_,
                              config_.traffic_seed, 0.0);
  AggregateSink sink = make_sink();
  gen.generate(sink);
  const auto yt = *catalog_.find("YouTube");
  const auto tgv = sink.tables().urbanization_row(
      yt, geo::Urbanization::kTgv, workload::Direction::kDownlink);
  const auto urban = sink.tables().urbanization_row(
      yt, geo::Urbanization::kUrban, workload::Direction::kDownlink);
  // Overnight share of traffic is much lower on TGV than in cities.
  auto night_share = [](std::span<const double> s) {
    double night = 0.0;
    double total = 0.0;
    for (std::size_t h = 0; h < s.size(); ++h) {
      total += s[h];
      const std::size_t hod = h % 24;
      if (hod < 5) night += s[h];
    }
    return night / total;
  };
  EXPECT_LT(night_share(tgv), 0.5 * night_share(urban));
}

TEST_F(GeneratorTest, AgreesWithEventLevelSimulatorOnNationalShape) {
  // The analytic generator is the large-population limit of the session
  // simulator: their per-service national weekly *shapes* must correlate.
  const AnalyticGenerator gen(territory_, subscribers_, catalog_,
                              config_.traffic_seed, 0.0);
  AggregateSink analytic = make_sink();
  gen.generate(analytic);

  net::BaseStationRegistry cells(territory_, {});
  net::DpiEngine dpi(catalog_);
  net::SessionSimConfig sim_cfg;
  sim_cfg.session_thinning = 0.02;
  sim_cfg.fingerprint_visible_fraction = 1.0;  // compare classified volumes
  sim_cfg.seed = config_.traffic_seed;
  net::SessionSimulator sim(territory_, subscribers_, catalog_, cells, dpi,
                            sim_cfg);
  AggregateTables<double> event(catalog_.size(), territory_.size());
  sim.run([&event, this](const net::UsageRecord& r) {
    if (!r.service) return;
    test_support::add_cell(event, *r.service, r.commune,
                           territory_.commune(r.commune).urbanization,
                           r.week_hour, static_cast<double>(r.downlink_bytes),
                           static_cast<double>(r.uplink_bytes));
  });

  const auto yt = *catalog_.find("YouTube");
  const auto analytic_series =
      analytic.tables().national_row(yt, workload::Direction::kDownlink);
  const auto event_series =
      event.national_row(yt, workload::Direction::kDownlink);
  const double r2 = stats::pearson_r2(analytic_series, event_series);
  EXPECT_GT(r2, 0.8);

  // And total volumes agree within sampling error.
  double analytic_total = 0.0;
  double event_total = 0.0;
  for (const double v : analytic_series) {
    analytic_total += v;
  }
  for (const double v : event_series) {
    event_total += v;
  }
  EXPECT_NEAR(event_total / analytic_total, 1.0, 0.15);
}

TEST_F(GeneratorTest, ConstructionValidation) {
  EXPECT_THROW(AnalyticGenerator(territory_, subscribers_, catalog_, 1, -0.1),
               util::PreconditionError);
  EXPECT_THROW(AnalyticGenerator(territory_, subscribers_, catalog_, 1,
                                 std::numeric_limits<double>::infinity()),
               util::PreconditionError);
}

/// Keeps every row the generator emits, by (service, commune).
class RowCapture final : public TrafficSink {
 public:
  void consume_row(const TrafficRow& row) override {
    std::vector<double> hours(row.downlink_bytes.begin(), row.downlink_bytes.end());
    hours.insert(hours.end(), row.uplink_bytes.begin(), row.uplink_bytes.end());
    rows[{row.service, row.commune}] = std::move(hours);
  }
  std::map<std::pair<workload::ServiceIndex, geo::CommuneId>, std::vector<double>> rows;
};

TEST_F(GeneratorTest, NoiseIgnoresSkippedServices) {
  // Two catalogs that differ only in one early service being adopted by
  // nobody: it emits no rows, and every other service's rows, jitter
  // included, keep their exact bits.
  constexpr workload::ServiceIndex kSkipped = 1;
  std::vector<workload::ServiceSpec> specs = catalog_.services();
  specs[kSkipped].spatial.adoption = 0.0;
  const workload::ServiceCatalog without(std::move(specs));

  RowCapture full;
  AnalyticGenerator(territory_, subscribers_, catalog_, config_.traffic_seed,
                    config_.temporal_noise_sigma)
      .generate(full);
  RowCapture skipped;
  AnalyticGenerator(territory_, subscribers_, without, config_.traffic_seed,
                    config_.temporal_noise_sigma)
      .generate(skipped);

  std::size_t compared = 0;
  for (const auto& [key, hours] : full.rows) {
    if (key.first == kSkipped) continue;
    const auto other = skipped.rows.find(key);
    ASSERT_NE(other, skipped.rows.end())
        << "service " << key.first << " commune " << key.second;
    ASSERT_EQ(std::memcmp(hours.data(), other->second.data(),
                          hours.size() * sizeof(double)),
              0)
        << "service " << key.first << " commune " << key.second;
    ++compared;
  }
  EXPECT_EQ(compared, skipped.rows.size());
  EXPECT_GT(compared, 0u);
}

TEST(ParallelTrace, GeneratorShardsAndFoldsAreNamedUnderGenerate) {
  // Every 32-commune shard is a span of its own, wherever the pool ran it,
  // and so is every replay of a shard that ran ahead of the fold frontier;
  // all descend from synth.generate through the pool's captured span
  // context. At 1 thread every shard is the frontier when it runs, so none
  // is staged; at 4 the replays are exactly the staged shards.
  const ScenarioConfig config = ScenarioConfig::test_scale();
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog = workload::ServiceCatalog::paper_services();
  const AnalyticGenerator gen(territory, subscribers, catalog, config.traffic_seed,
                              config.temporal_noise_sigma);
  const std::size_t shards = (territory.size() + 31) / 32;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const test_support::MetricsOn metrics;
    util::ThreadPool::set_global_threads(threads);
    AggregateSink sink(catalog.size(), territory.size());
    gen.generate(sink);
    util::ThreadPool::set_global_threads(0);

    const std::vector<util::TraceEvent> events =
        util::TraceRecorder::global().snapshot();
    std::map<std::uint64_t, const util::TraceEvent*> by_id;
    for (const util::TraceEvent& e : events) by_id.emplace(e.span_id, &e);
    std::map<std::string, std::size_t> seen;
    for (const util::TraceEvent& e : events) {
      if (e.name != "synth.generate.shard" && e.name != "synth.generate.fold") {
        continue;
      }
      ++seen[e.name];
      const util::TraceEvent* ancestor = &e;
      while (ancestor->name != "synth.generate") {
        const auto next = by_id.find(ancestor->parent_id);
        ASSERT_NE(next, by_id.end())
            << e.name << ": chain breaks at " << ancestor->name;
        ancestor = next->second;
      }
    }
    const std::uint64_t staged =
        test_support::counter_value("synth.generate.staged_shards");
    if (threads == 1) EXPECT_EQ(staged, 0u);
    EXPECT_EQ(seen["synth.generate.shard"], shards);
    EXPECT_EQ(seen["synth.generate.fold"], staged);
  }
}

TEST(ScenarioConfig, PresetsScaleAsDocumented) {
  EXPECT_EQ(ScenarioConfig::test_scale().country.commune_count, 400u);
  EXPECT_EQ(ScenarioConfig::example_scale().country.commune_count, 4'000u);
  EXPECT_EQ(ScenarioConfig::paper_scale().country.commune_count, 36'000u);
}

TEST(ScenarioConfig, ForScaleNamesThePresets) {
  EXPECT_EQ(io::config_hash(ScenarioConfig::for_scale("test")),
            io::config_hash(ScenarioConfig::test_scale()));
  EXPECT_EQ(io::config_hash(ScenarioConfig::for_scale("example")),
            io::config_hash(ScenarioConfig::example_scale()));
  EXPECT_EQ(io::config_hash(ScenarioConfig::for_scale("paper")),
            io::config_hash(ScenarioConfig::paper_scale()));
  EXPECT_THROW(ScenarioConfig::for_scale("exmaple"), util::InputError);
  EXPECT_THROW(ScenarioConfig::for_scale(""), util::InputError);
}

}  // namespace
}  // namespace appscope::synth
