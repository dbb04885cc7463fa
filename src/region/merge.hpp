// appscope/region/merge.hpp
//
// Multi-region scale-out, layer 3: combine per-region snapshots into one
// national "appscope.snapshot/1" view.
//
// Determinism contract (the serve::ShardedIngest contract, extended to
// files): the merged snapshot is a pure function of the SET of inputs.
// Regions are re-ordered into the canonical order (sorted by region id)
// before any accumulation, every summed cell adds its per-region terms in
// that fixed order, and the work decomposition over cells is independent of
// the thread count — so any input ordering, any shard count and any
// APPSCOPE_THREADS setting produce byte-identical output files
// (tests/properties/test_prop_region.cpp holds this under TSan).
//
// Geometry: region territories are laid out on a √R × √R grid of identical
// cells (the largest region side), commune/metro identifiers are offset
// into one dense id space, and names are prefixed "region-id/" so national
// per-commune analyses stay attributable. Aggregates concatenate
// (per-commune) or sum (national, per-class, totals).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/snapshot.hpp"

namespace appscope::region {

struct MergeStats {
  std::size_t regions = 0;
  std::size_t communes = 0;
  std::size_t services = 0;
  std::uint64_t subscribers = 0;
  /// Size of the written national snapshot.
  std::uint64_t bytes = 0;
  /// Region ids in canonical (sorted) order.
  std::vector<std::string> region_ids;
};

/// Reads every per-region snapshot in parallel (full validation). Throws
/// util::InputError on any malformed file.
std::vector<io::LoadedSnapshot> load_region_snapshots(
    const std::vector<std::string>& snapshot_paths);

/// Merges the loaded per-region snapshots into one national snapshot (in
/// memory). Throws util::InputError when a snapshot carries no region id
/// (format v1.0 single-country file), two inputs claim the same region, or
/// the service catalogs disagree (different names/categories — regions must
/// share one catalog; per-region popularity tilt only rescales rates).
/// Span: region.merge.
io::LoadedSnapshot merge_loaded_snapshots(
    const std::vector<io::LoadedSnapshot>& snapshots);

/// Writes a merged national snapshot to `out_path` (published atomically
/// through io::publish) and derives its MergeStats. Counters (when metrics are
/// enabled): region.merge.regions / .communes / .bytes.
MergeStats write_national_snapshot(const io::LoadedSnapshot& merged,
                                   const std::string& out_path);

/// load_region_snapshots + merge_loaded_snapshots + write_national_snapshot
/// in one call, for callers that don't need the loaded inputs afterwards.
MergeStats merge_region_snapshots(const std::vector<std::string>& snapshot_paths,
                                  const std::string& out_path);

}  // namespace appscope::region
