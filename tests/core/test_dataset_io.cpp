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
#include "util/strings.hpp"

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

/// The comma-separated fields of each data row of a CSV document (header
/// dropped). For documents without quoted fields, such as the tables here.
std::vector<std::vector<std::string>> data_rows(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::getline(in, line);
  std::vector<std::vector<std::string>> rows;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string>& row = rows.emplace_back();
    for (std::string f; std::getline(fields, f, ',');) row.push_back(f);
  }
  return rows;
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
  EXPECT_EQ(out.str().substr(0, out.str().find('\n')),
            "service,direction,commune,urbanization,bytes,bytes_per_user");
  const auto rows = data_rows(out.str());
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
    ASSERT_EQ(row.size(), 6u);
    ASSERT_TRUE(row[1] == "downlink" || row[1] == "uplink") << row[1];
    const auto direction = row[1] == "downlink" ? workload::Direction::kDownlink
                                                : workload::Direction::kUplink;
    const auto commune = static_cast<geo::CommuneId>(util::parse_int(row[2]));
    if (row[0] == "YouTube" && direction == workload::Direction::kDownlink &&
        commune == 3) {
      EXPECT_EQ(util::parse_double(row[4]), totals[3]);
      EXPECT_EQ(util::parse_double(row[5]), per_user[3]);
      found = true;
    }
    // And the whole table: every written value survives the CSV round trip
    // bitwise.
    EXPECT_EQ(util::parse_double(row[4]),
              dataset().commune_total(*dataset().catalog().find(row[0]),
                                      commune, direction));
  }
  EXPECT_TRUE(found);
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

// --- find_latest_snapshot ---------------------------------------------------

namespace fs = std::filesystem;

struct EpochDir {
  fs::path dir;

  explicit EpochDir(const char* name)
      : dir(test_support::temp_path(name)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~EpochDir() { fs::remove_all(dir); }

  std::string latest() const { return (dir / "latest.snapshot").string(); }
};

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
