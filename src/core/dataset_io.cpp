#include "core/dataset_io.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <system_error>

#include "io/serialize.hpp"
#include "io/snapshot.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace appscope::core {

namespace {
constexpr std::array<workload::Direction, 2> kDirections = {
    workload::Direction::kDownlink, workload::Direction::kUplink};
}

void write_national_series_csv(const TrafficDataset& dataset, std::ostream& out) {
  util::CsvWriter csv(out);
  csv.write_row({"service", "direction", "hour", "bytes"});
  for (std::size_t s = 0; s < dataset.service_count(); ++s) {
    for (const auto d : kDirections) {
      const auto& series = dataset.national_series(s, d);
      for (std::size_t h = 0; h < series.size(); ++h) {
        csv.write_row({dataset.catalog()[s].name,
                       std::string(workload::direction_name(d)),
                       std::to_string(h),
                       util::format_double_roundtrip(series[h])});
      }
    }
  }
}

void write_commune_totals_csv(const TrafficDataset& dataset, std::ostream& out) {
  util::CsvWriter csv(out);
  csv.write_row({"service", "direction", "commune", "urbanization", "bytes",
                 "bytes_per_user"});
  for (std::size_t s = 0; s < dataset.service_count(); ++s) {
    for (const auto d : kDirections) {
      const auto totals = dataset.commune_totals(s, d);
      const auto per_user = dataset.per_user_commune_vector(s, d);
      for (std::size_t c = 0; c < totals.size(); ++c) {
        csv.write_row(
            {dataset.catalog()[s].name, std::string(workload::direction_name(d)),
             std::to_string(c),
             std::string(geo::urbanization_name(
                 dataset.territory().communes()[c].urbanization)),
             util::format_double_roundtrip(totals[c]),
             util::format_double_roundtrip(per_user[c])});
      }
    }
  }
}

void write_urbanization_series_csv(const TrafficDataset& dataset,
                                   std::ostream& out) {
  util::CsvWriter csv(out);
  csv.write_row({"service", "direction", "class", "hour", "bytes"});
  for (std::size_t s = 0; s < dataset.service_count(); ++s) {
    for (const auto d : kDirections) {
      for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
        const auto cls = static_cast<geo::Urbanization>(u);
        const auto& series = dataset.urbanization_series(s, cls, d);
        for (std::size_t h = 0; h < series.size(); ++h) {
          csv.write_row({dataset.catalog()[s].name,
                         std::string(workload::direction_name(d)),
                         std::string(geo::urbanization_name(cls)),
                         std::to_string(h),
                         util::format_double_roundtrip(series[h])});
        }
      }
    }
  }
}

std::vector<std::string> export_dataset_csv(const TrafficDataset& dataset,
                                            const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) throw util::InputError("export_dataset_csv: cannot create " + directory);

  std::vector<std::string> written;
  const auto write_file = [&](const std::string& name, auto&& writer) {
    const std::string path = directory + "/" + name;
    std::ofstream out(path);
    if (!out) throw util::InputError("export_dataset_csv: cannot open " + path);
    writer(dataset, out);
    written.push_back(path);
  };
  write_file("national_series.csv", write_national_series_csv);
  write_file("commune_totals.csv", write_commune_totals_csv);
  write_file("urbanization_series.csv", write_urbanization_series_csv);
  return written;
}

TrafficDataset load_or_generate_snapshot(const synth::ScenarioConfig& config,
                                         const std::string& path) {
  APPSCOPE_REQUIRE(!path.empty(), "load_or_generate_snapshot: empty path");
  if (std::filesystem::exists(path)) {
    io::LoadedSnapshot snapshot = io::read_snapshot(path);
    if (snapshot.config_hash != io::config_hash(config)) {
      throw util::InputError(
          "snapshot: " + path +
          ": stored scenario config does not match the requested one "
          "(delete the file to regenerate)");
    }
    return TrafficDataset::from_snapshot(std::move(snapshot), path);
  }
  TrafficDataset dataset = TrafficDataset::generate(config);
  dataset.save(path);
  return dataset;
}

}  // namespace appscope::core
