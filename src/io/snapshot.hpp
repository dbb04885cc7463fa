// appscope/io/snapshot.hpp
//
// High-level dataset persistence: bundle everything a TrafficDataset is
// made of (scenario config, territory, subscriber base, service catalog and
// the aggregate tables) into one "appscope.snapshot/1" file, and read it
// back fully validated. The aggregate payloads travel as raw IEEE-754 bit
// patterns, so save -> load reproduces every aggregate bitwise;
// core::TrafficDataset::save/load are thin wrappers over these two
// functions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "geo/territory.hpp"
#include "synth/aggregate_tables.hpp"
#include "synth/scenario.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace appscope::io {

struct SnapshotStats {
  std::uint64_t bytes = 0;
  std::uint32_t sections = 0;
};

/// Writes a complete dataset snapshot and publishes it at `path` through
/// io::publish. The per-class subscriber section is derived from
/// `territory` and `subscribers`. Throws util::InputError on I/O failure
/// and util::PreconditionError when the table shape disagrees with the
/// territory/catalog dimensions.
SnapshotStats write_snapshot(const std::string& path,
                             const synth::ScenarioConfig& config,
                             const geo::Territory& territory,
                             const workload::SubscriberBase& subscribers,
                             const workload::ServiceCatalog& catalog,
                             const synth::AggregateTables<double>& aggregates);

/// Everything read_snapshot reconstructs; shared_ptr components slot
/// directly into TrafficDataset's ownership model.
struct LoadedSnapshot {
  synth::ScenarioConfig config;
  std::shared_ptr<const geo::Territory> territory;
  std::shared_ptr<const workload::SubscriberBase> subscribers;
  std::shared_ptr<const workload::ServiceCatalog> catalog;
  synth::AggregateTables<double> aggregates;
  /// Header fingerprint, for cheap compatibility checks against a caller's
  /// requested config (see config_hash in io/serialize.hpp).
  std::uint64_t config_hash = 0;
};

/// Reads and validates a snapshot written by write_snapshot. On top of the
/// structural checks in SnapshotReader (magic, version, truncation, table
/// CRC), it checks every section's CRC — sections this build does not
/// decode included — before it decodes anything. Then it cross-checks
/// every dimension: header vs embedded config vs decoded
/// territory/subscribers/catalog vs aggregate section element counts, and
/// the stored per-class subscriber counts against the decoded components.
/// Any mismatch throws util::InputError.
LoadedSnapshot read_snapshot(const std::string& path);

/// Name of sealed epoch `index` in a publish directory,
/// "epoch_<index>.snapshot" with the index zero-padded to six digits so
/// that name order is index order (find_latest_snapshot relies on it).
std::string epoch_filename(std::uint64_t index);

/// Most recent complete snapshot in a directory the appscope_serve daemon
/// seals epochs into: `latest.snapshot` when present, otherwise the
/// epoch_<index>.snapshot with the highest index, otherwise "". Only regular
/// files count — a subdirectory named like a snapshot (the region layer
/// publishes `<root>/<region>/epoch_*.snapshot`) never cross-matches. Lives
/// here (not core) so snapshot followers below the core layer can resolve
/// the publish point too.
std::string find_latest_snapshot(const std::string& directory);

/// Same resolution restricted to `<directory>/<subdir>` — the region-keyed
/// publish layout. `subdir` must be a single path component (no separators,
/// not "." or ".."); anything else throws util::InputError so a region id
/// can never escape the publish root.
std::string find_latest_snapshot(const std::string& directory,
                                 const std::string& subdir);

}  // namespace appscope::io
