// appscope_region — multi-region campaign driver: run every region of a
// preset set as an independent pipeline shard, publish one snapshot per
// region under a region-keyed directory layout, merge the shards into one
// national snapshot, and render the cross-region diversity report.
//
// Run:  ./appscope_region --count=4 --out=region_out
//       ./appscope_region --regions=paris,lyon,douai-lens --scale=example
//           --out=region_out --report=regions.md
//       ./appscope_region --count=20 --out=region_out          # first run
//       ./appscope_region --count=20 --out=region_out          # warm: reuses
//       ./appscope_region --list
//
// The per-region publish directories (<out>/<region>/latest.snapshot) are
// the appscope_serve layout, so appscope_query --dir=<out>/<region> works
// on any shard, and paper_report --load=<merge path> runs the full study
// on the merged national snapshot.
#include <fstream>
#include <iostream>

#include "core/dataset.hpp"
#include "region/compare.hpp"
#include "region/merge.hpp"
#include "region/orchestrator.hpp"
#include "region/report.hpp"
#include "region/spec.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

using namespace appscope;

namespace {

std::vector<std::string> split_ids(const std::string& text) {
  std::vector<std::string> ids;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    if (comma > pos) ids.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return ids;
}

region::RegionScale parse_scale(const std::string& name) {
  if (name == "tiny") return region::RegionScale::kTiny;
  if (name == "test") return region::RegionScale::kTest;
  if (name == "example") return region::RegionScale::kExample;
  throw util::InputError("unknown --scale=" + name + " (tiny|test|example)");
}

workload::Direction parse_direction(const std::string& name) {
  if (name == "downlink") return workload::Direction::kDownlink;
  if (name == "uplink") return workload::Direction::kUplink;
  throw util::InputError("unknown --direction=" + name);
}

int run(const util::CliArgs& args) {
  // Every flag is read before any work, so a malformed one fails the run
  // even beside --list.
  const bool list = args.has("list");
  const region::RegionScale scale =
      parse_scale(args.get_string("scale", "test"));
  const std::string names = args.get_string("regions", "");
  const auto count = args.get_count<std::size_t>("count", 4);
  region::OrchestratorOptions options;
  options.root = args.get_string("out", "region_out");
  options.reuse_snapshots = !args.has("regenerate");
  options.threads = args.get_count<std::size_t>("threads", 0);
  const std::string merge_path =
      args.get_string("merge", options.root + "/national.snapshot");
  const workload::Direction direction =
      parse_direction(args.get_string("direction", "downlink"));
  region::RegionReportOptions report_options;
  report_options.max_rows = args.get_count<std::size_t>("max-rows", 10);
  const std::string report_path = args.get_string("report", "");

  if (list) {
    for (const std::string& id : region::RegionSet::preset_ids()) {
      std::cout << id << "\n";
    }
    return 0;
  }

  const region::RegionSet regions =
      names.empty()
          ? region::RegionSet::metro_areas(count, scale)
          : region::RegionSet::metro_areas_named(split_ids(names), scale);
  const region::OrchestrationReport orchestration =
      region::orchestrate(regions, options);
  for (const region::RegionRun& run : orchestration.runs) {
    std::cerr << "appscope_region: " << run.id << ": "
              << (run.reused ? "reused" : "generated") << " "
              << run.snapshot_path << " (" << run.communes << " communes, "
              << util::format_bytes(static_cast<double>(run.bytes)) << ")\n";
  }

  // Each region snapshot is read and validated exactly once: the loaded
  // inputs feed the merge AND become the comparison-tier datasets (a warm
  // campaign pays one decode per region, not two).
  std::vector<io::LoadedSnapshot> loaded =
      region::load_region_snapshots(orchestration.snapshot_paths());
  io::LoadedSnapshot merged = region::merge_loaded_snapshots(loaded);
  const region::MergeStats merge =
      region::write_national_snapshot(merged, merge_path);
  std::cerr << "appscope_region: merged " << merge.regions << " regions -> "
            << merge_path << " (" << merge.communes << " communes, "
            << util::format_bytes(static_cast<double>(merge.bytes)) << ")\n";

  // The comparison tier: per-region datasets + the merged national view.
  std::vector<core::TrafficDataset> datasets;
  datasets.reserve(orchestration.runs.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    datasets.push_back(core::TrafficDataset::from_snapshot(
        std::move(loaded[i]), orchestration.runs[i].snapshot_path));
  }
  const core::TrafficDataset national =
      core::TrafficDataset::from_snapshot(std::move(merged), merge_path);

  std::vector<const core::TrafficDataset*> pointers;
  pointers.reserve(datasets.size());
  for (const core::TrafficDataset& d : datasets) pointers.push_back(&d);
  const region::RegionComparisonReport comparison =
      region::compare_regions(pointers, national, direction);

  if (report_path.empty()) {
    region::write_region_report(comparison, &merge, std::cout, report_options);
  } else {
    std::ofstream out(report_path);
    if (!out) {
      throw util::InputError("cannot open --report=" + report_path);
    }
    region::write_region_report(comparison, &merge, out, report_options);
    std::cerr << "appscope_region: report written to " << report_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(
        argc, argv,
        {"list", "scale", "regions", "count", "out", "regenerate", "threads",
         "merge", "direction", "max-rows", "report", "trace"});
    if (args.has("help")) {
      std::cout << args.help();
      return 0;
    }
    util::write_metrics_at_exit();
    util::enable_trace_export(args.get_string("trace", ""));
    return run(args);
  } catch (const util::Error& e) {
    std::cerr << "appscope_region: " << e.what() << "\n";
    return 1;
  }
}
