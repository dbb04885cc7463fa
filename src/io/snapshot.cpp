#include "io/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <system_error>

#include "io/binary.hpp"
#include "io/publish.hpp"
#include "io/serialize.hpp"
#include "io/snapshot_reader.hpp"
#include "io/snapshot_writer.hpp"
#include "util/error.hpp"
#include "util/trace.hpp"

namespace appscope::io {

namespace {

[[noreturn]] void mismatch(const std::string& path, const std::string& what) {
  throw util::InputError("snapshot: " + path + ": " + what);
}

}  // namespace

SnapshotStats write_snapshot(const std::string& path,
                             const synth::ScenarioConfig& config,
                             const geo::Territory& territory,
                             const workload::SubscriberBase& subscribers,
                             const workload::ServiceCatalog& catalog,
                             const synth::AggregateTables<double>& aggregates) {
  util::ScopedSpan span("snapshot.save");
  const synth::AggregateLayout shape{catalog.size(), territory.size()};
  APPSCOPE_REQUIRE(aggregates.layout() == shape,
                   "snapshot: aggregate dimensions disagree with components");
  APPSCOPE_REQUIRE(subscribers.commune_count() == territory.size(),
                   "snapshot: subscriber base disagrees with territory");

  const std::vector<std::byte> config_bytes = encode_config(config);
  const auto classes = subscribers.class_totals(territory);

  SnapshotWriter::Dimensions dims;
  dims.services = static_cast<std::uint32_t>(catalog.size());
  dims.communes = static_cast<std::uint32_t>(territory.size());
  dims.hours = static_cast<std::uint32_t>(synth::AggregateLayout::kHours);
  dims.directions =
      static_cast<std::uint32_t>(synth::AggregateLayout::kDirections);
  dims.urbanization_classes =
      static_cast<std::uint32_t>(synth::AggregateLayout::kClasses);

  SnapshotStats stats;
  publish(path, [&](const std::string& tmp) {
    SnapshotWriter writer(tmp, dims, fnv1a64(config_bytes),
                          config.traffic_seed);
    writer.add_section(SectionId::kConfig, config_bytes);
    writer.add_section(SectionId::kTerritory, encode_territory(territory));
    writer.add_section(SectionId::kSubscribers, encode_subscribers(subscribers));
    writer.add_section(SectionId::kCatalog, encode_catalog(catalog));
    writer.add_f64_section(SectionId::kNationalSeries, aggregates.national());
    writer.add_f64_section(SectionId::kCommuneTotals,
                           aggregates.commune_totals());
    writer.add_f64_section(SectionId::kUrbanizationSeries,
                           aggregates.urbanization());
    ByteWriter totals;
    totals.f64(aggregates.downlink_total);
    totals.f64(aggregates.uplink_total);
    totals.u64(aggregates.cells);
    writer.add_section(SectionId::kTotals, totals.bytes());
    writer.add_u64_section(SectionId::kClassSubscribers, classes);
    stats.sections = 9;
    stats.bytes = writer.finish();
  });
  return stats;
}

LoadedSnapshot read_snapshot(const std::string& path) {
  util::ScopedSpan span("snapshot.load");
  const SnapshotReader reader(path);
  const SnapshotHeader& header = reader.header();

  // The header's dimension block is the contract every section is checked
  // against; reject shapes this build cannot represent before decoding.
  if (header.hours != synth::AggregateLayout::kHours ||
      header.directions != synth::AggregateLayout::kDirections ||
      header.urbanization_classes != synth::AggregateLayout::kClasses) {
    mismatch(path, "dimension mismatch (hours/directions/classes differ from "
                   "this build)");
  }

  LoadedSnapshot loaded;
  loaded.config_hash = header.config_hash;

  const auto config_bytes = reader.section(SectionId::kConfig);
  loaded.config = decode_config(config_bytes);
  if (fnv1a64(config_bytes) != header.config_hash) {
    mismatch(path, "config hash disagrees with the embedded config");
  }
  if (loaded.config.traffic_seed != header.traffic_seed) {
    mismatch(path, "header seed disagrees with the embedded config");
  }

  {
    util::ScopedSpan decode_span("snapshot.decode.territory");
    loaded.territory = std::make_shared<const geo::Territory>(
        decode_territory(reader.section(SectionId::kTerritory)));
  }
  {
    util::ScopedSpan decode_span("snapshot.decode.subscribers");
    loaded.subscribers = std::make_shared<const workload::SubscriberBase>(
        decode_subscribers(reader.section(SectionId::kSubscribers)));
  }
  {
    util::ScopedSpan decode_span("snapshot.decode.catalog");
    loaded.catalog = std::make_shared<const workload::ServiceCatalog>(
        decode_catalog(reader.section(SectionId::kCatalog)));
  }

  if (loaded.territory->size() != header.communes) {
    mismatch(path, "dimension mismatch (territory has " +
                       std::to_string(loaded.territory->size()) +
                       " communes, header says " +
                       std::to_string(header.communes) + ")");
  }
  if (loaded.catalog->size() != header.services) {
    mismatch(path, "dimension mismatch (catalog has " +
                       std::to_string(loaded.catalog->size()) +
                       " services, header says " +
                       std::to_string(header.services) + ")");
  }
  if (loaded.subscribers->commune_count() != header.communes) {
    mismatch(path, "dimension mismatch (subscriber counts vs communes)");
  }
  if (header.services == 0 || header.communes == 0) {
    mismatch(path, "dimension mismatch (empty catalog or territory)");
  }

  // The typed views are zero-copy into the mapping; copying them into the
  // tables is the single copy on the load path.
  synth::AggregateTables<double>& a = loaded.aggregates;
  a = synth::AggregateTables<double>(header.services, header.communes);
  const auto load_table = [&](SectionId id, std::span<double> table) {
    const std::span<const double> column = reader.f64_section(id);
    if (column.size() != table.size()) {
      mismatch(path, "dimension mismatch (section '" +
                         std::string(section_name(id)) +
                         "' disagrees with the header dimensions)");
    }
    std::ranges::copy(column, table.begin());
  };
  load_table(SectionId::kNationalSeries, a.national());
  load_table(SectionId::kCommuneTotals, a.commune_totals());
  load_table(SectionId::kUrbanizationSeries, a.urbanization());

  {
    ByteReader totals(reader.section(SectionId::kTotals));
    a.downlink_total = totals.f64();
    a.uplink_total = totals.f64();
    a.cells = totals.u64();
    if (!totals.exhausted()) mismatch(path, "totals section malformed");
  }
  // The class divisors are derivable from the components, so a stored value
  // that disagrees means an inconsistent (tampered) file.
  const auto classes = reader.u64_section(SectionId::kClassSubscribers);
  if (classes.size() != geo::kUrbanizationCount) {
    mismatch(path, "class subscriber section malformed");
  }
  if (!std::ranges::equal(classes,
                          loaded.subscribers->class_totals(*loaded.territory))) {
    mismatch(path, "class subscriber totals disagree with the embedded "
                   "territory/subscriber base");
  }
  return loaded;
}

std::string epoch_filename(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "epoch_%06llu.snapshot",
                static_cast<unsigned long long>(index));
  return buf;
}

std::string find_latest_snapshot(const std::string& directory) {
  namespace fs = std::filesystem;
  const fs::path dir(directory);
  const fs::path latest = dir / "latest.snapshot";
  std::error_code ec;
  if (fs::is_regular_file(latest, ec)) return latest.string();

  // No latest.snapshot (sealing interrupted between the epoch publish and
  // the republish): fall back to the highest-numbered sealed epoch.
  std::string best;
  std::string best_name;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("epoch_") || !name.ends_with(".snapshot")) continue;
    // Region-keyed layouts nest publish dirs under this root; only regular
    // files are candidate snapshots here.
    std::error_code file_ec;
    if (!entry.is_regular_file(file_ec)) continue;
    // Zero-padded indices make lexicographic order the numeric order.
    if (best_name.empty() || name > best_name) {
      best_name = name;
      best = entry.path().string();
    }
  }
  return best;
}

std::string find_latest_snapshot(const std::string& directory,
                                 const std::string& subdir) {
  if (subdir.empty() || subdir == "." || subdir == ".." ||
      subdir.find('/') != std::string::npos ||
      subdir.find('\\') != std::string::npos) {
    throw util::InputError(
        "find_latest_snapshot: subdirectory filter \"" + subdir +
        "\" must be a single path component");
  }
  return find_latest_snapshot(
      (std::filesystem::path(directory) / subdir).string());
}

}  // namespace appscope::io
