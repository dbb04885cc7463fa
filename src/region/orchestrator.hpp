// appscope/region/orchestrator.hpp
//
// Multi-region scale-out, layer 2: run every region of a RegionSet as an
// independent pipeline shard and publish one snapshot per region into a
// region-keyed directory layout:
//
//   <root>/<region-id>/epoch_000000.snapshot   (sealed, atomic rename)
//   <root>/<region-id>/latest.snapshot         (republished pointer)
//
// The layout is the appscope_serve publish contract, so appscope_query
// --dir=<root>/<region-id> (and the io::find_latest_snapshot subdirectory
// overload) follow region outputs with no new machinery.
//
// Shards run on the global util::ThreadPool; a shard's own parallel stages
// execute inline on its worker (nested-run rule), so results are bitwise
// identical at every thread count. With reuse enabled a region whose
// published snapshot already matches its config (header hash check, no
// decode) is skipped entirely — re-running a 20-region campaign over warm
// snapshots costs less than regenerating any single region.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "region/spec.hpp"

namespace appscope::region {

struct OrchestratorOptions {
  /// Publish root; each region gets the subdirectory <root>/<id>/.
  std::string root;
  /// Reuse a region's published snapshot when its config hash matches the
  /// spec (the load-or-generate contract). When off, every region is
  /// regenerated and republished.
  bool reuse_snapshots = true;
  /// Worker threads for the shard fan-out. 0 keeps the current global pool
  /// size; any other value resizes the global util::ThreadPool first.
  /// Results are identical at every setting.
  std::size_t threads = 0;
};

/// Outcome of one region shard.
struct RegionRun {
  std::string id;
  /// The sealed epoch snapshot for this region.
  std::string snapshot_path;
  /// True when the existing snapshot matched and generation was skipped.
  bool reused = false;
  std::uint64_t bytes = 0;
  std::size_t communes = 0;
  std::uint64_t config_hash = 0;
};

struct OrchestrationReport {
  /// One entry per region, in RegionSet order.
  std::vector<RegionRun> runs;

  std::size_t generated_count() const noexcept;
  std::size_t reused_count() const noexcept;
  /// Snapshot paths in RegionSet order (merge input).
  std::vector<std::string> snapshot_paths() const;
};

/// Runs every region and publishes its snapshot. Throws util::InputError on
/// I/O failure or when an existing snapshot under a region's directory was
/// produced by a different config and reuse is enabled (stale layout: the
/// caller must regenerate or point elsewhere). Counters (when metrics are
/// enabled): region.orchestrate.regions / .generated / .reused / .bytes;
/// spans: region.orchestrate + one region.shard per region.
OrchestrationReport orchestrate(const RegionSet& regions,
                                const OrchestratorOptions& options);

/// The directory a region publishes into: <root>/<id>.
std::string region_directory(const std::string& root, const std::string& id);

}  // namespace appscope::region
