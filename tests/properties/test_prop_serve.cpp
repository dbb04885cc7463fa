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
// ^Parallel) races the real shard workers and the sealer thread under the
// sanitizer.
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
#include "ts/calendar.hpp"
#include "util/error.hpp"
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

constexpr std::uint32_t kEpochSeconds = 56 * net::kSecondsPerHour;  // 3/week

ServeConfig daemon_config(const fs::path& dir, std::size_t shards) {
  ServeConfig config;
  config.scenario = tiny_config();
  config.shard_count = shards;
  config.epoch_seconds = kEpochSeconds;
  config.snapshot_dir = dir.string();
  return config;
}

/// The staged week as one hour-major stream, for checks whose positions
/// cross hour boundaries: the router numbers events across the whole week.
std::vector<net::ServiceEvent> week_stream(
    const synth::EventReplaySource& replay) {
  std::vector<net::ServiceEvent> events;
  events.reserve(replay.week_event_count());
  for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
    const auto hour = replay.hour_events(h);
    events.insert(events.end(), hour.begin(), hour.end());
  }
  return events;
}

ServeStats run_daemon(const fs::path& dir, std::size_t shards,
                      bool force_sampling = false,
                      std::uint64_t sample_period = 8) {
  ServeConfig config = daemon_config(dir, shards);
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

  const std::vector<net::ServiceEvent> events = week_stream(replay);
  const std::uint64_t total = replay.week_event_count();
  ASSERT_EQ(events.size(), total);
  const std::uint64_t kept = (total + kPeriod - 1) / kPeriod;
  EXPECT_EQ(stats.ingested, kept);
  EXPECT_EQ(stats.sampled, total - kept);  // net.sampled is exact

  EventAggregates expected(catalog.size(), territory.size());
  std::uint64_t seq = 0;
  net::Bytes true_downlink = 0;
  for (const net::ServiceEvent& e : events) {
    true_downlink += e.downlink_bytes;
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

  // The estimator contract of serve/sampler.hpp, exactly in integers over
  // the replayed downlink volumes: the k phase estimates sum to k times the
  // truth, and the kept phase's error is within the per-run bound.
  std::vector<net::Bytes> phase_sums(kPeriod, 0);
  __uint128_t error_bound = 0;
  for (std::size_t run = 0; run < events.size(); run += kPeriod) {
    const std::size_t m = std::min<std::size_t>(kPeriod, events.size() - run);
    const net::Bytes first = events[run].downlink_bytes;
    net::Bytes lo = first;
    net::Bytes hi = first;
    for (std::size_t i = 0; i < m; ++i) {
      const net::Bytes v = events[run + i].downlink_bytes;
      phase_sums[i] += v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    error_bound += static_cast<__uint128_t>(m - 1) * (hi - lo) +
                   static_cast<__uint128_t>(kPeriod - m) * first;
  }
  __uint128_t phase_estimates = 0;
  for (const net::Bytes sum : phase_sums) {
    phase_estimates += static_cast<__uint128_t>(kPeriod) * sum;
  }
  EXPECT_TRUE(phase_estimates ==
              static_cast<__uint128_t>(kPeriod) * true_downlink)
      << "the phase estimates do not average to the truth";
  EXPECT_EQ(kPeriod * phase_sums[0], expected.downlink_total);
  const __uint128_t estimate = expected.downlink_total;
  const __uint128_t abs_error = estimate > true_downlink
                                          ? estimate - true_downlink
                                          : true_downlink - estimate;
  EXPECT_TRUE(abs_error <= error_bound)
      << "|error| " << static_cast<double>(abs_error) << " > bound "
      << static_cast<double>(error_bound);

  // And the estimate is close on this stream.
  const double relative_error =
      static_cast<double>(abs_error) / static_cast<double>(true_downlink);
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

  const std::vector<net::ServiceEvent> events = week_stream(replay);

  EventAggregates serial(catalog.size(), territory.size());
  for (const net::ServiceEvent& e : events) serial.apply(e, 1);

  for (const std::size_t barriers : {1u, 7u, 31u}) {
    ShardedIngest ingest(catalog.size(), territory.size(), {4, 1 << 12});
    EventAggregates rolling(catalog.size(), territory.size());
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

// --- The sealer thread -------------------------------------------------------

TEST(ParallelIngestSealer, DaemonSealsTheBytesOfInlineSealing) {
  constexpr std::size_t kWeeks = 2;
  const fs::path daemon_dir = temp_dir("daemon");
  ServeConfig config = daemon_config(daemon_dir, 3);
  config.weeks = kWeeks;
  ServeStats stats;
  {
    IngestDaemon daemon(config);
    stats = daemon.run();
  }
  ASSERT_EQ(stats.sampled, 0u);
  ASSERT_EQ(stats.epochs_sealed, kWeeks * 3);

  // The reference seals inline on this thread, in the daemon's order:
  // route each hour, and at every boundary collect, then seal.
  const fs::path inline_dir = temp_dir("inline");
  const auto scenario = tiny_config();
  const geo::Territory territory =
      geo::build_synthetic_country(scenario.country);
  const workload::SubscriberBase subscribers(territory, scenario.population);
  const auto catalog = workload::ServiceCatalog::paper_services();
  const synth::EventReplaySource replay(territory, subscribers, catalog,
                                        scenario);
  EventAggregates rolling(catalog.size(), territory.size());
  ShardedIngest ingest(catalog.size(), territory.size(), {2, 1 << 12});
  EpochSealer sealer(inline_dir.string(), scenario, territory, subscribers,
                     catalog);
  for (std::size_t week = 0; week < kWeeks; ++week) {
    const std::uint64_t week_offset = week * net::kSecondsPerWeek;
    for (std::size_t hour = 0; hour < 168; ++hour) {
      for (net::ServiceEvent event : replay.hour_events(hour)) {
        event.timestamp =
            static_cast<net::Timestamp>(event.timestamp + week_offset);
        ingest.route(event, 1);
      }
      const std::uint64_t end_second =
          week_offset + (hour + 1) * net::kSecondsPerHour;
      if (end_second % kEpochSeconds == 0) {
        ingest.collect_epoch(rolling);
        sealer.seal(end_second / kEpochSeconds - 1, rolling);
      }
    }
  }
  ingest.stop();

  for (std::uint64_t epoch = 0; epoch < stats.epochs_sealed; ++epoch) {
    const std::string name = io::epoch_filename(epoch);
    EXPECT_EQ(file_bytes(daemon_dir / name), file_bytes(inline_dir / name))
        << name;
  }
  EXPECT_EQ(file_bytes(daemon_dir / "latest.snapshot"),
            file_bytes(inline_dir / "latest.snapshot"));
  EXPECT_FALSE(fs::exists(daemon_dir / io::epoch_filename(stats.epochs_sealed)));
  fs::remove_all(daemon_dir);
  fs::remove_all(inline_dir);
}

TEST(ParallelIngestSealer, SealFailureSurfacesFromRun) {
  // A directory squatting on epoch 1's name makes that seal's rename fail
  // on the sealer thread; run() must rethrow it and seal nothing later.
  const fs::path dir = temp_dir("squatted");
  fs::create_directories(dir / io::epoch_filename(1));
  IngestDaemon daemon(daemon_config(dir, 2));
  EXPECT_THROW(daemon.run(), util::InputError);

  EXPECT_EQ(file_bytes(dir / "latest.snapshot"),
            file_bytes(dir / io::epoch_filename(0)));
  EXPECT_TRUE(fs::is_directory(dir / io::epoch_filename(1)));
  EXPECT_FALSE(fs::exists(dir / (io::epoch_filename(1) + ".tmp")));
  EXPECT_FALSE(fs::exists(dir / io::epoch_filename(2)));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace appscope::serve
