// region-cold: a multi-region campaign from an empty root on a pool of 4.
// region::orchestrate generates and publishes every example-scale region,
// then the campaign loads them with full validation, merges, writes the
// national snapshot, and compares the regions into a report.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "harness.hpp"
#include "region/compare.hpp"
#include "region/merge.hpp"
#include "region/orchestrator.hpp"
#include "region/report.hpp"
#include "region/spec.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

namespace region = appscope::region;
using appscope::core::TrafficDataset;

constexpr std::size_t kRegions = 8;
constexpr std::size_t kSetupReps = 20;
constexpr std::size_t kSetupBatch = 200;
constexpr std::uint64_t kSalt = 4;

/// The first kRegions metro presets at example scale, with every region's
/// seeds derived from the run seed.
region::RegionSet make_regions(std::uint64_t seed) {
  std::vector<region::RegionSpec> specs =
      region::RegionSet::metro_areas(kRegions, region::RegionScale::kExample).regions();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].config = seeded(specs[i].config, seed, kSalt + 1 + i);
  }
  return region::RegionSet(std::move(specs));
}

struct Campaign {
  double seconds = 0.0;
  std::uint64_t report_hash = 0;
};

Campaign campaign(const region::RegionSet& regions, const std::string& root,
                  Tracer* tracer, Outcome& out) {
  const auto t0 = Clock::now();
  region::OrchestratorOptions options;
  options.root = root;
  options.threads = kThreadBudget;
  region::OrchestrationReport orchestration;
  {
    Tracer::Scope s(tracer, "region.orchestrate_s");
    orchestration = region::orchestrate(regions, options);
  }
  std::vector<appscope::io::LoadedSnapshot> loaded;
  {
    Tracer::Scope s(tracer, "region.load_s");
    loaded = region::load_region_snapshots(orchestration.snapshot_paths());
  }
  appscope::io::LoadedSnapshot merged;
  {
    Tracer::Scope s(tracer, "region.merge_s");
    merged = region::merge_loaded_snapshots(loaded);
  }
  const std::string national_path = root + "/national.snapshot";
  region::MergeStats merge;
  {
    Tracer::Scope s(tracer, "region.write_s");
    merge = region::write_national_snapshot(merged, national_path);
  }

  // Invariants, a few sums over totals: each region shard was generated
  // from cold and loads with its commune count, and the merge carries the
  // sum of the region totals.
  double downlink = 0.0;
  double uplink = 0.0;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const region::RegionRun& run = orchestration.runs[i];
    ++out.attempted;
    if (run.reused || loaded[i].territory->size() != run.communes) {
      out.fail("region: shard " + run.id + " reused or lost communes");
    }
    downlink += loaded[i].aggregates.downlink_total;
    uplink += loaded[i].aggregates.uplink_total;
  }
  ++out.attempted;
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
  };
  if (merge.regions != regions.size() ||
      !near(merged.aggregates.downlink_total, downlink) ||
      !near(merged.aggregates.uplink_total, uplink)) {
    out.fail("region: national totals differ from the sum of region totals");
  }

  HashStream report;
  {
    Tracer::Scope s(tracer, "region.compare_s");
    std::vector<TrafficDataset> datasets;
    datasets.reserve(loaded.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      datasets.push_back(TrafficDataset::from_snapshot(
          std::move(loaded[i]), orchestration.runs[i].snapshot_path));
    }
    const TrafficDataset national =
        TrafficDataset::from_snapshot(std::move(merged), national_path);
    std::vector<const TrafficDataset*> pointers;
    for (const TrafficDataset& d : datasets) pointers.push_back(&d);
    const region::RegionComparisonReport comparison = region::compare_regions(
        pointers, national, appscope::workload::Direction::kDownlink);
    region::write_region_report(comparison, &merge, report);
  }
  return {seconds_between(t0, Clock::now()), report.hash()};
}

}  // namespace

Outcome run_region(const Options& options) {
  Outcome out;
  appscope::util::ThreadPool::set_global_threads(kThreadBudget);

  // Set-up of a cold campaign: building the region set. One construction
  // takes microseconds, so each sample times kSetupBatch of them.
  std::optional<region::RegionSet> regions;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < kSetupBatch; ++j) {
      regions.reset();
      regions.emplace(make_regions(options.seed));
    }
    out.setup_s.push_back(seconds_between(t0, Clock::now()) / kSetupBatch);
  }

  std::optional<std::uint64_t> report_hash;
  const auto run = [&](Tracer* tracer) {
    const std::string root = fresh_dir(options, "region");
    const Campaign c = campaign(*regions, root, tracer, out);
    remove_tree(root);
    settle_disk();
    if (!report_hash) report_hash = c.report_hash;
    if (c.report_hash != *report_hash) out.fail("region: report bytes differ");
    return c.seconds * 1e3;
  };

  const double phase = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> untraced;
  const auto start = Clock::now();
  while (untraced.empty() || seconds_between(start, Clock::now()) < phase) {
    untraced.push_back(run(nullptr));
  }
  out.latency_name = "cold campaign of " + std::to_string(kRegions) + " regions";
  out.figures.push_back({"campaign_s", median(untraced) / 1e3, "s", untraced.size()});
  if (!options.trace) {
    out.latency_ms = untraced;
    return out;
  }

  // Traced phase: harness spans per region:: call, plus the program's own
  // generation timer and snapshot byte counters, reset per campaign.
  auto& registry = appscope::util::MetricsRegistry::global();
  appscope::util::MetricsRegistry::set_enabled(true);
  std::map<std::string, std::vector<double>> per_run;
  std::vector<double> traced;
  const auto traced_start = Clock::now();
  while (traced.empty() || seconds_between(traced_start, Clock::now()) < phase) {
    registry.reset();
    Tracer tracer;
    traced.push_back(run(&tracer));
    for (const char* layer : {"region.orchestrate_s", "region.load_s", "region.merge_s",
                              "region.write_s", "region.compare_s"}) {
      per_run[layer].push_back(tracer.total(layer));
    }
    const auto snap = registry.snapshot();
    const auto generate = snap.histograms.find("stage.synth.generate.wall_seconds");
    per_run["synth.generate_s"].push_back(
        generate == snap.histograms.end() ? 0.0 : generate->second.sum);
    for (const auto& [layer, counter] :
         {std::pair{"io.bytes_written", "io.snapshot.bytes_written"},
          std::pair{"io.bytes_read", "io.snapshot.bytes_read"}}) {
      const auto it = snap.counters.find(counter);
      per_run[layer].push_back(
          it == snap.counters.end() ? 0.0 : static_cast<double>(it->second));
    }
  }
  appscope::util::MetricsRegistry::set_enabled(false);
  for (const auto& [layer, values] : per_run) out.layers[layer] = median(values);
  out.layers["trace.overhead_ms"] = median(traced) - median(untraced);
  return out;
}

}  // namespace perfbench
