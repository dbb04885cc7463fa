// Determinism and overload properties of the appscope_serve ingest plane.
//
// The contract (DESIGN.md §4h): for a fixed scenario seed and a fixed
// epoch schedule, the sealed epoch snapshots are *bitwise identical* at any
// shard count — the shards accumulate uint64 counters, whose merge is
// independent of shard assignment and arrival interleaving, and the
// uint64 -> double conversion at seal time is a pure function of the
// totals. Byte-identical snapshot files imply byte-identical reports for
// the covered week.
//
// The suites are named ParallelIngest* so the TSan CI preset (which runs
// ^Parallel) races the real shard workers under the sanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "net/event.hpp"
#include "serve/aggregates.hpp"
#include "serve/daemon.hpp"
#include "serve/epoch.hpp"
#include "serve/ingest.hpp"
#include "support/temp_dir.hpp"
#include "synth/replay.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace appscope::serve {
namespace {

namespace fs = std::filesystem;

synth::ScenarioConfig tiny_config() {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 50;
  cfg.country.metro_count = 2;
  return cfg;
}

fs::path temp_dir(const std::string& name) {
  const fs::path dir = test_support::temp_path(name);
  fs::remove_all(dir);
  return dir;
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ServeStats run_daemon(const fs::path& dir, std::size_t shards,
                      bool force_sampling = false,
                      std::uint64_t sample_period = 8) {
  ServeConfig config;
  config.scenario = tiny_config();
  config.shard_count = shards;
  config.epoch_seconds = 56 * net::kSecondsPerHour;  // 3 epochs per week
  config.snapshot_dir = dir.string();
  config.force_sampling = force_sampling;
  config.sample_period = sample_period;
  IngestDaemon daemon(config);
  return daemon.run();
}

TEST(ParallelIngestDeterminism, SealedSnapshotsBitwiseIdenticalAcrossShards) {
  const std::size_t shard_counts[] = {1, 2, 8};
  std::vector<std::string> epoch_bytes[3];

  for (std::size_t i = 0; i < std::size(shard_counts); ++i) {
    const fs::path dir = temp_dir("det_" + std::to_string(shard_counts[i]));
    const ServeStats stats = run_daemon(dir, shard_counts[i]);
    EXPECT_EQ(stats.epochs_sealed, 3u);
    EXPECT_EQ(stats.sampled, 0u);
    for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
      epoch_bytes[i].push_back(
          file_bytes(dir / io::epoch_filename(epoch)));
      EXPECT_FALSE(epoch_bytes[i].back().empty());
    }
    epoch_bytes[i].push_back(file_bytes(dir / "latest.snapshot"));
    fs::remove_all(dir);
  }

  for (std::size_t i = 1; i < std::size(shard_counts); ++i) {
    ASSERT_EQ(epoch_bytes[i].size(), epoch_bytes[0].size());
    for (std::size_t f = 0; f < epoch_bytes[0].size(); ++f) {
      EXPECT_EQ(epoch_bytes[i][f], epoch_bytes[0][f])
          << "file " << f << " differs between 1 and " << shard_counts[i]
          << " shards";
    }
  }
}

TEST(ParallelIngestDeterminism, RepeatedRunsAreBitwiseIdentical) {
  const fs::path dir_a = temp_dir("rep_a");
  const fs::path dir_b = temp_dir("rep_b");
  run_daemon(dir_a, 4);
  run_daemon(dir_b, 4);
  EXPECT_EQ(file_bytes(dir_a / "latest.snapshot"),
            file_bytes(dir_b / "latest.snapshot"));
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(ParallelIngestOverload, SamplingIsExactAndWithinEstimatorBound) {
  constexpr std::uint64_t kPeriod = 4;
  const fs::path dir = temp_dir("overload");
  const ServeStats stats =
      run_daemon(dir, 4, /*force_sampling=*/true, kPeriod);

  // Replicate the router's admission sequence serially: systematic 1-in-k
  // by sequence number is a pure function of the stream.
  const auto config = tiny_config();
  const geo::Territory territory =
      geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const auto catalog = workload::ServiceCatalog::paper_services();
  const synth::EventReplaySource replay(territory, subscribers, catalog,
                                        config);

  const std::uint64_t total = replay.week_event_count();
  const std::uint64_t kept = (total + kPeriod - 1) / kPeriod;
  EXPECT_EQ(stats.ingested, kept);
  EXPECT_EQ(stats.sampled, total - kept);  // net.sampled is exact

  EventAggregates expected(catalog.size(), territory.size());
  std::uint64_t seq = 0;
  net::Bytes true_downlink = 0;
  net::Bytes max_event = 0;
  for (const net::ServiceEvent& e : replay.events()) {
    true_downlink += e.downlink_bytes;
    max_event = std::max(max_event, e.downlink_bytes + e.uplink_bytes);
    if (seq++ % kPeriod == 0) expected.apply(e, kPeriod);
  }

  // The sharded, force-sampled run produces exactly the serial systematic
  // estimate — shard count and interleaving cannot change which events are
  // kept or how they are scaled.
  const core::TrafficDataset loaded =
      core::TrafficDataset::load(stats.latest_snapshot);
  EXPECT_EQ(loaded.direction_total(workload::Direction::kDownlink),
            static_cast<double>(expected.downlink_total));
  EXPECT_EQ(loaded.direction_total(workload::Direction::kUplink),
            static_cast<double>(expected.uplink_total));
  for (std::size_t s = 0; s < catalog.size(); ++s) {
    EXPECT_TRUE(std::ranges::equal(
        loaded.national_series(s, workload::Direction::kDownlink),
        expected.national_downlink_series(s)))
        << "service " << s;
  }

  // Documented estimator bound (serve/sampler.hpp): the relative error of a
  // total over n sampled events is O(k * e_max / (n * e_mean)). Assert the
  // explicit form with the stream's own moments — and that the estimate is
  // close in absolute terms (the synthetic stream's events are
  // similar-sized, so systematic sampling is tight).
  const double estimate = static_cast<double>(expected.downlink_total);
  const double truth = static_cast<double>(true_downlink);
  const double relative_error = std::abs(estimate - truth) / truth;
  const double e_mean = truth / static_cast<double>(total);
  const double bound = static_cast<double>(kPeriod) *
                       static_cast<double>(max_event) /
                       (static_cast<double>(total) * e_mean);
  EXPECT_LE(relative_error, bound);
  EXPECT_LE(relative_error, 0.05);
  fs::remove_all(dir);
}

TEST(ParallelIngestBarrier, MidStreamEpochsPartitionTheWeek) {
  // Routing the same events with epoch barriers interleaved at arbitrary
  // points must accumulate to the same rolling state: barriers only cut the
  // stream, they never lose or duplicate events.
  const auto config = tiny_config();
  const geo::Territory territory =
      geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const auto catalog = workload::ServiceCatalog::paper_services();
  const synth::EventReplaySource replay(territory, subscribers, catalog,
                                        config);

  EventAggregates serial(catalog.size(), territory.size());
  for (const net::ServiceEvent& e : replay.events()) serial.apply(e, 1);

  for (const std::size_t barriers : {1u, 7u, 31u}) {
    ShardedIngest ingest(catalog.size(), territory.size(), {4, 1 << 12});
    EventAggregates rolling(catalog.size(), territory.size());
    const auto events = replay.events();
    std::size_t routed = 0;
    for (std::size_t cut = 1; cut <= barriers; ++cut) {
      const std::size_t until = events.size() * cut / barriers;
      for (; routed < until; ++routed) ingest.route(events[routed], 1);
      ingest.collect_epoch(rolling);
    }
    ingest.stop();
    EXPECT_EQ(rolling.events(), serial.events());
    EXPECT_EQ(rolling.downlink_total, serial.downlink_total);
    EXPECT_EQ(rolling.uplink_total, serial.uplink_total);
    for (std::size_t s = 0; s < catalog.size(); ++s) {
      EXPECT_EQ(rolling.national_total(s), serial.national_total(s));
    }
  }
}

}  // namespace
}  // namespace appscope::serve
