// Unit and integration tests of the appscope_serve ingest plane: the SPSC
// queue, the wire framing, the overload sampler, the replay source's
// volume conservation, the integer aggregates, the online trackers, and an
// end-to-end daemon run whose sealed snapshot loads back through
// core::TrafficDataset and agrees with the batch pipeline up to the
// documented event quantization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "io/snapshot.hpp"
#include "net/event.hpp"
#include "serve/aggregates.hpp"
#include "serve/daemon.hpp"
#include "serve/epoch.hpp"
#include "serve/online.hpp"
#include "serve/sampler.hpp"
#include "serve/spsc_queue.hpp"
#include "support/metrics_on.hpp"
#include "support/temp_dir.hpp"
#include "synth/replay.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace appscope::serve {
namespace {

namespace fs = std::filesystem;

synth::ScenarioConfig small_config() {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 60;
  cfg.country.metro_count = 2;
  return cfg;
}

fs::path temp_dir(const std::string& name) {
  const fs::path dir = test_support::temp_path(name);
  fs::remove_all(dir);
  return dir;
}

// --- SpscQueue -------------------------------------------------------------

TEST(SpscQueue, FillDrainAndWraparound) {
  SpscQueue<int> queue(8);
  // Fill to capacity, then one more push must fail.
  int popped = 0;
  for (int round = 0; round < 5; ++round) {  // > capacity rounds force wrap
    int pushed = 0;
    while (queue.try_push(round * 100 + pushed)) ++pushed;
    EXPECT_EQ(pushed, 8);
    int value = -1;
    for (int i = 0; i < pushed; ++i) {
      ASSERT_TRUE(queue.try_pop(value));
      EXPECT_EQ(value, round * 100 + i);  // FIFO order survives wraparound
      ++popped;
    }
    EXPECT_FALSE(queue.try_pop(value));
  }
  EXPECT_EQ(popped, 40);
}

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  SpscQueue<int> queue(5);  // rounds to 8
  int pushed = 0;
  while (queue.try_push(pushed)) ++pushed;
  EXPECT_EQ(pushed, 8);
}

TEST(SpscQueue, RejectsCapacityAboveLargestPowerOfTwo) {
  // Rounding either up to a power of two would overflow to 0.
  constexpr std::size_t kLargest =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_THROW(SpscQueue<int>(std::numeric_limits<std::size_t>::max()),
               util::PreconditionError);
  EXPECT_THROW(SpscQueue<int>(kLargest + 1), util::PreconditionError);
}

TEST(SpscQueue, RejectsCapacityWhoseRingCannotBeAllocated) {
  // 2^62 is a power of two, so only the ring allocation can fail: 2^62 ints
  // exceed the vector's max_size, which resize reports as std::length_error.
  EXPECT_THROW(SpscQueue<int>(std::size_t{1} << 62), util::PreconditionError);
}

// --- OverloadSampler -------------------------------------------------------

TEST(OverloadSampler, KeepsOneInKWithExactScale) {
  OverloadSampler sampler(4);
  sampler.force_sampling();
  std::uint64_t kept = 0, dropped = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t scale = sampler.admit();
    if (scale == 0) {
      ++dropped;
    } else {
      EXPECT_EQ(scale, 4u);  // every kept event compensates by exactly k
      ++kept;
    }
  }
  EXPECT_EQ(kept, 250u);
  EXPECT_EQ(dropped, 750u);
  EXPECT_EQ(sampler.sampled(), dropped);
}

TEST(OverloadSampler, InactiveUntilTriggeredAndWindowExpires) {
  OverloadSampler sampler(2, /*window=*/8);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.admit(), 1u);
  EXPECT_FALSE(sampler.sampling_active());

  sampler.trigger();
  EXPECT_TRUE(sampler.sampling_active());
  std::uint64_t dropped = 0;
  for (int i = 0; i < 8; ++i) {
    if (sampler.admit() == 0) ++dropped;
  }
  EXPECT_EQ(dropped, 4u);
  // Window exhausted: back to verbatim admission.
  EXPECT_FALSE(sampler.sampling_active());
  EXPECT_EQ(sampler.admit(), 1u);
  EXPECT_EQ(sampler.triggers(), 1u);
}

// --- EventReplaySource -----------------------------------------------------

TEST(EventReplaySource, ConservesVolumesAndStagesHourMajor) {
  const auto config = small_config();
  const geo::Territory territory =
      geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const auto catalog = workload::ServiceCatalog::paper_services();

  const synth::EventReplaySource replay(territory, subscribers, catalog,
                                        config);
  ASSERT_GT(replay.week_event_count(), 0u);

  net::Bytes downlink = 0, uplink = 0;
  std::uint32_t last_hour_end = 0;
  for (std::size_t h = 0; h < 168; ++h) {
    for (const net::ServiceEvent& e : replay.hour_events(h)) {
      EXPECT_EQ(e.week_hour(), h);
      EXPECT_GE(e.timestamp, last_hour_end);
      downlink += e.downlink_bytes;
      uplink += e.uplink_bytes;
    }
    last_hour_end = static_cast<std::uint32_t>(h) * net::kSecondsPerHour;
  }
  EXPECT_EQ(downlink, replay.staged_downlink_bytes());
  EXPECT_EQ(uplink, replay.staged_uplink_bytes());

  // The staged stream is the batch dataset quantized to integer bytes:
  // every nonzero cell contributes at most 0.5 bytes of rounding error.
  const core::TrafficDataset dataset = core::TrafficDataset::generate(config);
  const double cells = static_cast<double>(dataset.service_count()) *
                       static_cast<double>(dataset.commune_count()) * 168.0;
  EXPECT_NEAR(static_cast<double>(replay.staged_downlink_bytes()),
              dataset.direction_total(workload::Direction::kDownlink),
              0.5 * cells);
  EXPECT_NEAR(static_cast<double>(replay.staged_uplink_bytes()),
              dataset.direction_total(workload::Direction::kUplink),
              0.5 * cells);
}

TEST(EventReplaySource, EventsPerCellSplitsConserveBytesExactly) {
  const auto config = small_config();
  const geo::Territory territory =
      geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const auto catalog = workload::ServiceCatalog::paper_services();

  const synth::EventReplaySource whole(territory, subscribers, catalog, config,
                                       1);
  const synth::EventReplaySource split(territory, subscribers, catalog, config,
                                       3);
  EXPECT_EQ(split.staged_downlink_bytes(), whole.staged_downlink_bytes());
  EXPECT_EQ(split.staged_uplink_bytes(), whole.staged_uplink_bytes());
  EXPECT_GT(split.week_event_count(), whole.week_event_count());
}

// --- EventAggregates -------------------------------------------------------

TEST(EventAggregates, ApplyMergeResetAndScale) {
  EventAggregates a(2, 3);
  net::ServiceEvent e;
  e.timestamp = 5 * net::kSecondsPerHour;
  e.commune = 1;
  e.service = 1;
  e.urbanization = 2;
  e.downlink_bytes = 100;
  e.uplink_bytes = 40;
  a.apply(e, 1);
  a.apply(e, 3);  // sampled keeper: volumes scaled exactly
  EXPECT_EQ(a.events(), 2u);
  EXPECT_EQ(a.downlink_total, 400u);
  EXPECT_EQ(a.uplink_total, 160u);
  EXPECT_EQ(a.national_total(1), 560u);
  EXPECT_EQ(a.national_total(0), 0u);
  EXPECT_EQ(a.national_downlink_series(1)[5], 400.0);

  EventAggregates b(2, 3);
  b.apply(e, 1);
  b.merge(a);
  EXPECT_EQ(b.events(), 3u);
  EXPECT_EQ(b.downlink_total, 500u);

  b.reset();
  EXPECT_EQ(b.events(), 0u);
  EXPECT_EQ(b.national_total(1), 0u);
}

// --- Online trackers -------------------------------------------------------

TEST(OnlineTrackers, ZipfRankChangesCountInversions) {
  EventAggregates rolling(3, 2);
  ZipfRankTracker tracker(3);

  net::ServiceEvent e;
  e.downlink_bytes = 1000;
  e.service = 0;
  rolling.apply(e, 1);
  e.downlink_bytes = 500;
  e.service = 1;
  rolling.apply(e, 1);
  e.downlink_bytes = 100;
  e.service = 2;
  rolling.apply(e, 1);

  auto update = tracker.update(rolling);
  EXPECT_EQ(update.rank_changes, 0u);  // first observation: no previous
  EXPECT_EQ(tracker.ranking(), (std::vector<std::size_t>{0, 1, 2}));

  // Service 2 overtakes service 1: exactly two positions change.
  e.downlink_bytes = 2000;
  e.service = 2;
  rolling.apply(e, 1);
  update = tracker.update(rolling);
  EXPECT_EQ(update.rank_changes, 3u);  // 2 to front shifts 0 and 1 down
  EXPECT_EQ(tracker.ranking(), (std::vector<std::size_t>{2, 0, 1}));
  EXPECT_EQ(tracker.total_rank_changes(), 3u);
}

TEST(OnlineTrackers, PeakTrackerSkipsShortPrefixes) {
  EventAggregates rolling(1, 1);
  OnlinePeakTracker tracker(1);
  tracker.update(rolling, 3);  // shorter than lag: must not detect anything
  EXPECT_EQ(tracker.rising_fronts(), 0u);
  EXPECT_EQ(tracker.updates(), 1u);
}

// --- End-to-end daemon run -------------------------------------------------

TEST(IngestDaemon, SealedSnapshotLoadsAndMatchesBatchDataset) {
  const fs::path dir = temp_dir("daemon_e2e");
  ServeConfig config;
  config.scenario = small_config();
  config.shard_count = 3;
  config.epoch_seconds = 24 * net::kSecondsPerHour;  // 7 epochs per week
  config.snapshot_dir = dir.string();

  IngestDaemon daemon(config);
  const ServeStats stats = daemon.run();
  EXPECT_GT(stats.ingested, 0u);
  EXPECT_EQ(stats.sampled, 0u);  // unthrottled small run: no shedding
  EXPECT_EQ(stats.epochs_sealed, 7u);
  ASSERT_FALSE(stats.latest_snapshot.empty());

  // Every sealed epoch is a complete, loadable snapshot.
  for (std::uint64_t epoch = 0; epoch < 7; ++epoch) {
    EXPECT_TRUE(fs::exists(dir / io::epoch_filename(epoch)));
  }

  const core::TrafficDataset loaded =
      core::TrafficDataset::load(stats.latest_snapshot);
  loaded.validate();
  EXPECT_EQ(loaded.commune_count(), 60u);

  // The streamed week equals the batch-generated dataset up to the
  // per-cell integer quantization of the replay source.
  const core::TrafficDataset batch =
      core::TrafficDataset::generate(config.scenario);
  const double cells = static_cast<double>(batch.service_count()) *
                       static_cast<double>(batch.commune_count()) * 168.0;
  for (const auto d :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    EXPECT_NEAR(loaded.direction_total(d), batch.direction_total(d),
                0.5 * cells);
  }

  // find_latest_snapshot resolves the directory the daemon sealed into.
  EXPECT_EQ(io::find_latest_snapshot(dir.string()), stats.latest_snapshot);
  const core::TrafficDataset via_dir =
      core::TrafficDataset::load(io::find_latest_snapshot(dir.string()));
  EXPECT_EQ(via_dir.direction_total(workload::Direction::kDownlink),
            loaded.direction_total(workload::Direction::kDownlink));
  fs::remove_all(dir);
}

TEST(IngestDaemon, StopFlagDrainsAndSealsPartialEpoch) {
  const fs::path dir = temp_dir("daemon_stop");
  std::atomic<bool> stop{true};  // raised before the run: stops immediately
  ServeConfig config;
  config.scenario = small_config();
  config.shard_count = 2;
  config.snapshot_dir = dir.string();
  config.stop_flag = &stop;

  IngestDaemon daemon(config);
  const ServeStats stats = daemon.run();
  // The first batch may land before the flag is checked; whatever was
  // routed must still be sealed as a consistent partial epoch.
  if (stats.ingested > 0) {
    EXPECT_GE(stats.epochs_sealed, 1u);
    const core::TrafficDataset loaded =
        core::TrafficDataset::load(stats.latest_snapshot);
    loaded.validate();
  }
  fs::remove_all(dir);
}

TEST(IngestDaemon, SealMetricsOnePerEpoch) {
  const test_support::MetricsOn metrics;
  const fs::path dir = temp_dir("daemon_metrics");
  ServeConfig config;
  config.scenario = small_config();
  config.shard_count = 2;
  config.epoch_seconds = 24 * net::kSecondsPerHour;
  config.snapshot_dir = dir.string();
  IngestDaemon daemon(config);
  const ServeStats stats = daemon.run();
  ASSERT_EQ(stats.epochs_sealed, 7u);

  // run() returns after the last publication, so every epoch's sealer-side
  // observations are in.
  const util::MetricsSnapshot snap = util::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("serve.epochs.sealed"), stats.epochs_sealed);
  EXPECT_EQ(snap.histograms.at("serve.epoch.seal_wall_seconds").count,
            stats.epochs_sealed);
  EXPECT_EQ(snap.histograms.at("serve.epoch.seal_wait_seconds").count,
            stats.epochs_sealed);
  EXPECT_GT(snap.histograms.at("serve.ingest.enqueue_to_seal").count, 0u);
  EXPECT_EQ(snap.gauges.at("serve.epoch.last_index"), 6.0);
  fs::remove_all(dir);
}

// --- Sealed-snapshot corruption (exercised under ASan/UBSan in CI) ---------

TEST(SealedSnapshotCorruption, LoadRejectsBitFlips) {
  const fs::path dir = temp_dir("daemon_corrupt");
  ServeConfig config;
  config.scenario = small_config();
  config.shard_count = 2;
  config.epoch_seconds = 84 * net::kSecondsPerHour;  // 2 epochs: fast seal
  config.snapshot_dir = dir.string();
  IngestDaemon daemon(config);
  const ServeStats stats = daemon.run();
  ASSERT_FALSE(stats.latest_snapshot.empty());

  std::string bytes;
  {
    std::ifstream in(stats.latest_snapshot, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 128u);

  // Flip a byte in the middle of the payload and at the header.
  for (const std::size_t offset : {bytes.size() / 2, std::size_t{4}}) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    const fs::path path = dir / "corrupt.snapshot";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    EXPECT_THROW(core::TrafficDataset::load(path.string()), util::InputError)
        << "flip at offset " << offset;
  }

  // Truncation mid-section must be rejected, never partially loaded.
  {
    const fs::path path = dir / "truncated.snapshot";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  EXPECT_THROW(core::TrafficDataset::load((dir / "truncated.snapshot").string()),
               util::InputError);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace appscope::serve
