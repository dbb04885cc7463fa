// End-to-end tests of dataset persistence: TrafficDataset::save/load
// reproduces every aggregate bitwise (so an analysis on the loaded dataset
// emits a byte-identical report), save publishes a new file instead of
// rewriting an open one, and load_or_generate_snapshot caches correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/dataset.hpp"
#include "core/dataset_io.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "query/snapshot_view.hpp"
#include "support/metrics_on.hpp"
#include "support/temp_dir.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace appscope::core {
namespace {

synth::ScenarioConfig small_config() {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 60;
  cfg.country.metro_count = 2;
  return cfg;
}

const TrafficDataset& dataset() {
  static const TrafficDataset d = TrafficDataset::generate(small_config());
  return d;
}

std::filesystem::path temp_file(const std::string& name) {
  return test_support::temp_path(name);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(SnapshotDataset, SaveLoadRoundTripIsBitwise) {
  const std::string path = temp_file("roundtrip.snapshot").string();
  dataset().save(path);
  const TrafficDataset loaded = TrafficDataset::load(path);

  ASSERT_EQ(loaded.service_count(), dataset().service_count());
  ASSERT_EQ(loaded.commune_count(), dataset().commune_count());
  EXPECT_EQ(loaded.config().traffic_seed, dataset().config().traffic_seed);
  EXPECT_EQ(loaded.subscribers().counts(), dataset().subscribers().counts());

  for (std::size_t s = 0; s < dataset().service_count(); ++s) {
    EXPECT_EQ(loaded.catalog()[s].name, dataset().catalog()[s].name);
    for (const auto d :
         {workload::Direction::kDownlink, workload::Direction::kUplink}) {
      EXPECT_TRUE(std::ranges::equal(loaded.national_series(s, d),
                                     dataset().national_series(s, d)));
      EXPECT_EQ(loaded.commune_totals(s, d), dataset().commune_totals(s, d));
      EXPECT_EQ(loaded.per_user_commune_vector(s, d),
                dataset().per_user_commune_vector(s, d));
      for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
        const auto cls = static_cast<geo::Urbanization>(u);
        EXPECT_TRUE(std::ranges::equal(loaded.urbanization_series(s, cls, d),
                                       dataset().urbanization_series(s, cls, d)));
      }
    }
  }
  for (const auto d :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    EXPECT_EQ(loaded.direction_total(d), dataset().direction_total(d));
  }
  loaded.validate();
  std::filesystem::remove(path);
}

TEST(SnapshotDataset, LoadedDatasetEmitsByteIdenticalReport) {
  const std::string path = temp_file("report.snapshot").string();
  dataset().save(path);
  const TrafficDataset loaded = TrafficDataset::load(path);

  StudyOptions options;
  options.cluster.k_max = 6;  // keep the sweep short; identity is the point
  const auto render = [&](const TrafficDataset& d) {
    const StudyReport report = run_study(d, options);
    std::ostringstream out;
    write_markdown_report(report, d, out);
    return out.str();
  };
  EXPECT_EQ(render(loaded), render(dataset()));
  std::filesystem::remove(path);
}

TEST(SnapshotDataset, SaveOverAnOpenViewKeepsItReadable) {
  // save() publishes a new file rather than rewriting the old one in place,
  // so a view opened before keeps reading the sections it was opened on.
  const std::string path = temp_file("open_view.snapshot").string();
  dataset().save(path);
  const query::SnapshotView view(path);
  auto other = small_config();
  other.traffic_seed += 1;
  TrafficDataset::generate(other).save(path);

  const auto d = workload::Direction::kDownlink;
  EXPECT_TRUE(std::ranges::equal(view.national_row(0, d),
                                 dataset().national_series(0, d)));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(SnapshotDataset, LoadOrGenerateCachesAndValidates) {
  const std::string path = temp_file("cache.snapshot").string();
  std::filesystem::remove(path);
  const auto config = small_config();

  const TrafficDataset first = load_or_generate_snapshot(config, path);
  ASSERT_TRUE(std::filesystem::exists(path));
  // The cached call reads and validates each section exactly once.
  util::MetricsSnapshot snap;
  const TrafficDataset second = [&] {
    const test_support::MetricsOn metrics;
    TrafficDataset loaded = load_or_generate_snapshot(config, path);
    snap = util::MetricsRegistry::global().snapshot();
    return loaded;
  }();
  EXPECT_EQ(snap.counters.at("io.snapshot.bytes_read"),
            std::filesystem::file_size(path));
  EXPECT_EQ(snap.counters.at("io.snapshot.sections"), 9u);
  EXPECT_EQ(second.direction_total(workload::Direction::kDownlink),
            first.direction_total(workload::Direction::kDownlink));
  EXPECT_TRUE(std::ranges::equal(
      second.national_series(0, workload::Direction::kUplink),
      first.national_series(0, workload::Direction::kUplink)));

  // A different scenario must not silently reuse the cached file.
  auto other = config;
  other.traffic_seed += 1;
  EXPECT_THROW(load_or_generate_snapshot(other, path), util::InputError);
  std::filesystem::remove(path);
}

TEST(SnapshotDataset, MetricsCountersTrackBytesAndSections) {
  const std::string path = temp_file("metrics.snapshot").string();
  util::MetricsRegistry::set_enabled(true);
  util::MetricsRegistry::global().reset();
  dataset().save(path);
  auto snap = util::MetricsRegistry::global().snapshot();
  const auto written = snap.counters.find("io.snapshot.bytes_written");
  ASSERT_NE(written, snap.counters.end());
  EXPECT_EQ(written->second, std::filesystem::file_size(path));
  EXPECT_EQ(snap.counters.at("io.snapshot.sections"), 9u);
  EXPECT_EQ(snap.counters.count("io.snapshot.checksum_failures"), 0u);

  util::MetricsRegistry::global().reset();
  const TrafficDataset loaded = TrafficDataset::load(path);
  snap = util::MetricsRegistry::global().snapshot();
  util::MetricsRegistry::set_enabled(false);
  const auto read = snap.counters.find("io.snapshot.bytes_read");
  ASSERT_NE(read, snap.counters.end());
  EXPECT_EQ(read->second, std::filesystem::file_size(path));
  EXPECT_EQ(snap.counters.at("io.snapshot.sections"), 9u);
  EXPECT_EQ(loaded.commune_count(), dataset().commune_count());
  std::filesystem::remove(path);
}

TEST(SnapshotDataset, MetricsOffRunIsBitwiseIdenticalToMetricsOn) {
  // The snapshot path follows the repo's observability contract: metrics
  // are pure observation, so the bytes on disk do not depend on the gate.
  const std::string off = temp_file("gate_off.snapshot").string();
  const std::string on = temp_file("gate_on.snapshot").string();
  util::MetricsRegistry::set_enabled(false);
  dataset().save(off);
  util::MetricsRegistry::set_enabled(true);
  dataset().save(on);
  util::MetricsRegistry::set_enabled(false);
  EXPECT_EQ(file_bytes(off), file_bytes(on));
  std::filesystem::remove(off);
  std::filesystem::remove(on);
}

}  // namespace
}  // namespace appscope::core
