#include "core/dataset_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/snapshot.hpp"
#include "support/temp_dir.hpp"
#include "util/error.hpp"

namespace appscope::core {
namespace {

const TrafficDataset& dataset() {
  static const TrafficDataset d = [] {
    auto cfg = synth::ScenarioConfig::test_scale();
    cfg.country.commune_count = 60;  // keep CSV sizes small
    cfg.country.metro_count = 2;
    return TrafficDataset::generate(cfg);
  }();
  return d;
}

TEST(DatasetIo, NationalSeriesCsvShape) {
  std::ostringstream out;
  write_national_series_csv(dataset(), out);
  const std::string text = out.str();
  // Header + 20 services x 2 directions x 168 hours.
  const auto lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(lines, 1 + 20 * 2 * 168);
  EXPECT_EQ(text.substr(0, text.find('\n')), "service,direction,hour,bytes");
}

TEST(DatasetIo, UrbanizationSeriesCsvShape) {
  std::ostringstream out;
  write_urbanization_series_csv(dataset(), out);
  const std::string text = out.str();
  const auto lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(lines, 1 + 20 * 2 * 4 * 168);
}

TEST(DatasetIo, CommuneTotalsRoundTrip) {
  std::ostringstream out;
  write_commune_totals_csv(dataset(), out);
  const auto rows = read_commune_totals_csv(out.str());
  ASSERT_EQ(rows.size(), 20u * 2u * dataset().commune_count());

  // Check one specific entry against the dataset. Values are written with
  // std::to_chars round-trip formatting, so the parse must recover the
  // dataset's doubles exactly — not merely within rounding tolerance.
  const auto yt = *dataset().catalog().find("YouTube");
  const auto totals =
      dataset().commune_totals(yt, workload::Direction::kDownlink);
  const auto per_user =
      dataset().per_user_commune_vector(yt, workload::Direction::kDownlink);
  bool found = false;
  for (const auto& row : rows) {
    if (row.service == "YouTube" &&
        row.direction == workload::Direction::kDownlink && row.commune == 3) {
      EXPECT_EQ(row.bytes, totals[3]);
      EXPECT_EQ(row.bytes_per_user, per_user[3]);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // And the whole table: every written value survives the CSV round trip
  // bitwise (the old fixed-precision writer lost everything past the first
  // decimal).
  for (const auto& row : rows) {
    EXPECT_EQ(row.bytes,
              dataset().commune_total(*dataset().catalog().find(row.service),
                                      row.commune, row.direction));
  }
}

TEST(DatasetIo, ReadRejectsMalformedDocuments) {
  EXPECT_THROW(read_commune_totals_csv("wrong,header\n1,2\n"), util::InputError);
  EXPECT_THROW(read_commune_totals_csv(
                   "service,direction,commune,urbanization,bytes,bytes_per_user\n"
                   "YouTube,sideways,1,Urban,10,1\n"),
               util::InputError);
  EXPECT_THROW(read_commune_totals_csv(
                   "service,direction,commune,urbanization,bytes,bytes_per_user\n"
                   "YouTube,downlink,1,Urban,10\n"),
               util::InputError);
  EXPECT_THROW(read_commune_totals_csv(""), util::PreconditionError);
}

TEST(DatasetIo, ExportWritesAllThreeFiles) {
  const std::string dir = test_support::temp_path("csv").string();
  std::filesystem::remove_all(dir);
  const auto written = export_dataset_csv(dataset(), dir);
  ASSERT_EQ(written.size(), 3u);
  for (const auto& path : written) {
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_GT(std::filesystem::file_size(path), 100u) << path;
  }
  std::filesystem::remove_all(dir);
}

// --- load_epoch_snapshot: publisher race regression --------------------------

namespace fs = std::filesystem;

struct EpochDir {
  fs::path dir;

  explicit EpochDir(const char* name)
      : dir(test_support::temp_path(name)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~EpochDir() {
    detail::set_epoch_load_test_hook(nullptr);
    fs::remove_all(dir);
  }

  std::string latest() const { return (dir / "latest.snapshot").string(); }
};

TEST(DatasetIo, LoadEpochSnapshotRetriesWhenPublisherSwapsTheFile) {
  // Simulates the daemon sealing a new epoch between find_latest_snapshot()
  // and load(): attempt 0 sees a half-replaced (truncated) file; the retry
  // must land on the restored valid snapshot instead of surfacing an error.
  EpochDir e("appscope_epoch_race");
  dataset().save(e.latest());
  std::vector<char> valid;
  {
    std::ifstream in(e.latest(), std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  std::vector<int> attempts;
  detail::set_epoch_load_test_hook([&](int attempt) {
    attempts.push_back(attempt);
    std::ofstream out(e.latest(), std::ios::binary | std::ios::trunc);
    if (attempt == 0) {
      // Half-written replacement: valid prefix, truncated payload.
      out.write(valid.data(), static_cast<std::streamsize>(valid.size() / 2));
    } else {
      out.write(valid.data(), static_cast<std::streamsize>(valid.size()));
    }
  });

  const TrafficDataset loaded = load_epoch_snapshot(e.dir.string());
  EXPECT_EQ((std::vector<int>{0, 1}), attempts);
  EXPECT_EQ(loaded.service_count(), dataset().service_count());
  EXPECT_TRUE(std::ranges::equal(
      loaded.national_series(0, workload::Direction::kDownlink),
      dataset().national_series(0, workload::Direction::kDownlink)));
}

TEST(DatasetIo, LoadEpochSnapshotGivesUpAfterBoundedRetries) {
  // A genuinely corrupt snapshot must still fail: the retry is bounded, not
  // an infinite loop papering over bad data.
  EpochDir e("appscope_epoch_corrupt");
  dataset().save(e.latest());
  int calls = 0;
  detail::set_epoch_load_test_hook([&](int) {
    ++calls;
    std::ofstream out(e.latest(), std::ios::binary | std::ios::trunc);
    out << "not a snapshot";
  });
  EXPECT_THROW(load_epoch_snapshot(e.dir.string()), util::InputError);
  EXPECT_EQ(calls, 3);  // one per bounded attempt
}

TEST(DatasetIo, LoadEpochSnapshotEmptyDirectoryThrows) {
  EpochDir e("appscope_epoch_empty");
  EXPECT_THROW(load_epoch_snapshot(e.dir.string()), util::InputError);
}

TEST(DatasetIo, FindLatestSnapshotPrefersLatestOverEpochs) {
  EpochDir e("appscope_epoch_find");
  EXPECT_EQ(io::find_latest_snapshot(e.dir.string()), "");
  { std::ofstream((e.dir / "epoch_0003.snapshot").string()) << "x"; }
  { std::ofstream((e.dir / "epoch_0011.snapshot").string()) << "x"; }
  EXPECT_EQ(io::find_latest_snapshot(e.dir.string()),
            (e.dir / "epoch_0011.snapshot").string());
  { std::ofstream(e.latest()) << "x"; }
  EXPECT_EQ(io::find_latest_snapshot(e.dir.string()), e.latest());
}

TEST(DatasetIo, FindLatestSnapshotIgnoresRegionSubdirectories) {
  // The region orchestrator nests publish dirs under one root
  // (<root>/<region>/epoch_*.snapshot). Resolution at the root must never
  // cross-match into them — neither via directory names that look like
  // snapshots nor via their contents.
  EpochDir e("appscope_epoch_nested");
  fs::create_directories(e.dir / "paris");
  { std::ofstream((e.dir / "paris" / "epoch_000007.snapshot").string()) << "x"; }
  EXPECT_EQ(io::find_latest_snapshot(e.dir.string()), "");

  // Even a directory NAMED like a snapshot is not a snapshot.
  fs::create_directories(e.dir / "epoch_000009.snapshot");
  fs::create_directories(e.dir / "latest.snapshot");
  EXPECT_EQ(io::find_latest_snapshot(e.dir.string()), "");

  { std::ofstream((e.dir / "epoch_000001.snapshot").string()) << "x"; }
  EXPECT_EQ(io::find_latest_snapshot(e.dir.string()),
            (e.dir / "epoch_000001.snapshot").string());
}

TEST(DatasetIo, FindLatestSnapshotSubdirectoryFilter) {
  EpochDir e("appscope_epoch_subdir");
  fs::create_directories(e.dir / "paris");
  fs::create_directories(e.dir / "lyon");
  { std::ofstream((e.dir / "paris" / "epoch_000002.snapshot").string()) << "x"; }
  { std::ofstream((e.dir / "lyon" / "latest.snapshot").string()) << "x"; }
  { std::ofstream((e.dir / "epoch_000099.snapshot").string()) << "x"; }

  // The filter resolves inside exactly one region directory; siblings and
  // the root's own snapshots are invisible.
  EXPECT_EQ(io::find_latest_snapshot(e.dir.string(), "paris"),
            (e.dir / "paris" / "epoch_000002.snapshot").string());
  EXPECT_EQ(io::find_latest_snapshot(e.dir.string(), "lyon"),
            (e.dir / "lyon" / "latest.snapshot").string());
  EXPECT_EQ(io::find_latest_snapshot(e.dir.string(), "nice"), "");

  // A filter that is not a single path component can never escape the root.
  EXPECT_THROW(io::find_latest_snapshot(e.dir.string(), ""), util::InputError);
  EXPECT_THROW(io::find_latest_snapshot(e.dir.string(), "."), util::InputError);
  EXPECT_THROW(io::find_latest_snapshot(e.dir.string(), ".."), util::InputError);
  EXPECT_THROW(io::find_latest_snapshot(e.dir.string(), "a/b"), util::InputError);
  EXPECT_THROW(io::find_latest_snapshot(e.dir.string(), "a\\b"), util::InputError);
}

}  // namespace
}  // namespace appscope::core
