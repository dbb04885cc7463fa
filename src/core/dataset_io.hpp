// appscope/core/dataset_io.hpp
//
// CSV persistence for TrafficDataset aggregates: export the national hourly
// series, per-commune weekly totals and per-urbanization-class series to
// plain CSV files (for external plotting/pandas), and re-import the
// commune-totals table for cross-run comparisons.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/dataset.hpp"

namespace appscope::core {

/// Writes one row per (service, direction, hour) with the national volume.
/// Columns: service,direction,hour,bytes.
void write_national_series_csv(const TrafficDataset& dataset, std::ostream& out);

/// Writes one row per (service, direction, commune) with the weekly volume
/// and the per-subscriber volume.
/// Columns: service,direction,commune,urbanization,bytes,bytes_per_user.
void write_commune_totals_csv(const TrafficDataset& dataset, std::ostream& out);

/// Writes one row per (service, direction, urbanization class, hour).
/// Columns: service,direction,class,hour,bytes.
void write_urbanization_series_csv(const TrafficDataset& dataset,
                                   std::ostream& out);

/// Writes all three tables under `directory` as national_series.csv,
/// commune_totals.csv and urbanization_series.csv; creates the directory.
/// Returns the file paths written. Throws InputError on I/O failure.
std::vector<std::string> export_dataset_csv(const TrafficDataset& dataset,
                                            const std::string& directory);

/// One parsed row of a commune-totals CSV.
struct CommuneTotalsRow {
  std::string service;
  workload::Direction direction = workload::Direction::kDownlink;
  geo::CommuneId commune = 0;
  std::string urbanization;
  double bytes = 0.0;
  double bytes_per_user = 0.0;
};

/// Parses a commune-totals document produced by write_commune_totals_csv.
/// Throws InputError on malformed content.
std::vector<CommuneTotalsRow> read_commune_totals_csv(std::string_view text);

/// Loads the dataset snapshot at `path` if the file exists, otherwise
/// generates the dataset from `config` and saves it there for next time.
/// An existing snapshot whose embedded config does not match `config`
/// throws util::InputError instead of silently regenerating — a stale
/// snapshot path almost always means a mistyped flag, not intent.
TrafficDataset load_or_generate_snapshot(const synth::ScenarioConfig& config,
                                         const std::string& path);

/// Loads the most recent sealed epoch from a daemon snapshot directory.
/// Retries (bounded) when the publisher atomically replaces the file
/// between path resolution and open/validate, so readers racing the sealer
/// never see a spurious error. Throws util::InputError when the directory
/// holds no snapshot or the snapshot is genuinely corrupt.
TrafficDataset load_epoch_snapshot(const std::string& directory);

namespace detail {
/// Test hook invoked between resolving the snapshot path and loading it,
/// with the 0-based attempt index — lets a regression test swap the file
/// mid-load to exercise the retry. Pass nullptr to clear. Not thread-safe;
/// tests install/remove it around single-threaded calls.
void set_epoch_load_test_hook(std::function<void(int)> hook);
}  // namespace detail

}  // namespace appscope::core
