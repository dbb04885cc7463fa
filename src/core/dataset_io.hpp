// appscope/core/dataset_io.hpp
//
// CSV export of TrafficDataset aggregates: the national hourly series,
// per-commune weekly totals and per-urbanization-class series as plain CSV
// files (for external plotting/pandas), plus the snapshot cache of a
// generated dataset.
#pragma once

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

/// Loads the dataset snapshot at `path` if the file exists, otherwise
/// generates the dataset from `config` and saves it there for next time.
/// An existing snapshot whose embedded config does not match `config`
/// throws util::InputError instead of silently regenerating — a stale
/// snapshot path almost always means a mistyped flag, not intent.
TrafficDataset load_or_generate_snapshot(const synth::ScenarioConfig& config,
                                         const std::string& path);

}  // namespace appscope::core
