#include "region/orchestrator.hpp"

#include <filesystem>
#include <system_error>

#include "core/dataset.hpp"
#include "io/publish.hpp"
#include "io/serialize.hpp"
#include "io/snapshot.hpp"
#include "io/snapshot_reader.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace appscope::region {

namespace fs = std::filesystem;

namespace {

/// Seals one freshly generated region snapshot as epoch 0 with the
/// serve-daemon publish sequence: save() publishes the epoch file, then
/// latest.snapshot is republished as a link to it. A crash between the two
/// leaves a valid epoch file that find_latest_snapshot still resolves.
std::string publish_shard(const core::TrafficDataset& dataset,
                          const fs::path& dir) {
  const std::string epoch_path = (dir / io::epoch_filename(0)).string();
  dataset.save(epoch_path);
  io::publish_link(epoch_path, (dir / "latest.snapshot").string());
  return epoch_path;
}

RegionRun run_shard(const RegionSpec& spec, const OrchestratorOptions& options) {
  util::ScopedSpan span("region.shard");

  RegionRun run;
  run.id = spec.id;
  run.config_hash = io::config_hash(spec.config);

  const fs::path dir(region_directory(options.root, spec.id));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw util::InputError("orchestrate: cannot create " + dir.string() +
                           ": " + ec.message());
  }

  if (options.reuse_snapshots) {
    const std::string existing =
        io::find_latest_snapshot(options.root, spec.id);
    if (!existing.empty()) {
      // Only the header and section table are checked — the reuse decision
      // never pays for decoding or CRC-ing the payload sections.
      const io::SnapshotReader reader(existing);
      if (reader.header().config_hash != run.config_hash) {
        throw util::InputError(
            "orchestrate: " + existing +
            ": published snapshot was produced by a different config than "
            "region \"" + spec.id + "\" (regenerate, or point --out at a "
            "fresh directory)");
      }
      // A kill between publish_shard's two steps leaves the epoch file
      // without its link: republish the link so the layout is whole again.
      const fs::path latest = dir / "latest.snapshot";
      if (fs::path(existing) != latest) {
        io::publish_link(existing, latest.string());
      }
      run.reused = true;
      run.snapshot_path = existing;
      run.bytes = static_cast<std::uint64_t>(fs::file_size(existing, ec));
      run.communes = reader.header().communes;
      return run;
    }
  }

  const core::TrafficDataset dataset = core::TrafficDataset::generate(spec.config);
  run.snapshot_path = publish_shard(dataset, dir);
  run.bytes = static_cast<std::uint64_t>(fs::file_size(run.snapshot_path, ec));
  run.communes = dataset.commune_count();
  return run;
}

}  // namespace

std::size_t OrchestrationReport::generated_count() const noexcept {
  std::size_t n = 0;
  for (const RegionRun& r : runs) n += r.reused ? 0 : 1;
  return n;
}

std::size_t OrchestrationReport::reused_count() const noexcept {
  return runs.size() - generated_count();
}

std::vector<std::string> OrchestrationReport::snapshot_paths() const {
  std::vector<std::string> paths;
  paths.reserve(runs.size());
  for (const RegionRun& r : runs) paths.push_back(r.snapshot_path);
  return paths;
}

std::string region_directory(const std::string& root, const std::string& id) {
  if (!valid_region_id(id)) {
    throw util::InputError("region_directory: invalid region id \"" + id +
                           "\"");
  }
  return (fs::path(root) / id).string();
}

OrchestrationReport orchestrate(const RegionSet& regions,
                                const OrchestratorOptions& options) {
  if (options.root.empty()) {
    throw util::InputError("orchestrate: publish root must not be empty");
  }
  if (options.threads != 0) {
    util::ThreadPool::set_global_threads(options.threads);
  }

  util::ScopedSpan span("region.orchestrate");

  OrchestrationReport report;
  report.runs.resize(regions.size());
  // One pool task per region: shards are independent (distinct directories,
  // distinct result slots), and each shard's inner parallel stages execute
  // inline on its worker, so the fan-out changes wall-clock only.
  util::ThreadPool::global().run(regions.size(), [&](std::size_t i) {
    report.runs[i] = run_shard(regions[i], options);
  });

  if (util::MetricsRegistry::enabled()) {
    auto& metrics = util::MetricsRegistry::global();
    metrics.add("region.orchestrate.regions", report.runs.size());
    metrics.add("region.orchestrate.generated", report.generated_count());
    metrics.add("region.orchestrate.reused", report.reused_count());
    std::uint64_t bytes = 0;
    for (const RegionRun& r : report.runs) bytes += r.bytes;
    metrics.add("region.orchestrate.bytes", bytes);
  }
  return report;
}

}  // namespace appscope::region
