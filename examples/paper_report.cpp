// paper_report — regenerates the full study as a Markdown document (the
// template behind EXPERIMENTS.md) and optionally exports the dataset
// aggregates as CSV for external plotting.
//
// Run:  ./paper_report                          (test scale, stdout)
//       ./paper_report --scale=example
//       ./paper_report --out=report.md --csv-dir=figures_csv
//       ./paper_report --snapshot=dataset.snap   (load-or-generate cache)
//       ./paper_report --load=region_out/national.snapshot
//       ./paper_report --trace=trace.json        (Chrome trace + summary)
//       ./paper_report --help                    (the flags; any other flag
//                                                 or argument is an error)
#include <fstream>
#include <iostream>

#include "core/dataset_io.hpp"
#include "core/report.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "util/trace_analysis.hpp"

using namespace appscope;

namespace {

int run(const util::CliArgs& args) {
  // APPSCOPE_METRICS=1 exports the per-stage timings of the run to
  // metrics.json (or APPSCOPE_METRICS_PATH) when the process exits.
  util::write_metrics_at_exit();
  // --trace=PATH (or APPSCOPE_TRACE=PATH) exports the span DAG of the run
  // as a Chrome trace-event document at exit and prints the per-span
  // summary + critical path to stderr after the study finishes. The report
  // on stdout is byte-identical with tracing on or off.
  const std::string trace_path =
      util::enable_trace_export(args.get_string("trace", ""));

  const synth::ScenarioConfig config =
      synth::ScenarioConfig::for_scale(args.get_string("scale", "test"));
  core::StudyOptions study_options;
  study_options.cluster.k_max = args.get_count<std::size_t>("kmax", 19);
  core::ReportOptions report_options;
  report_options.title = "Not All Apps Are Created Equal — reproduction report";
  report_options.include_maps = !args.has("no-maps");
  const std::string out_path = args.get_string("out", "");
  const std::string csv_dir = args.get_string("csv-dir", "");

  // --snapshot=<path>: reuse the binary dataset snapshot at <path> if it
  // exists (mmap-backed load, no regeneration), otherwise generate and save
  // it there. The report is byte-identical either way.
  // --load=<path>: run the study on an existing snapshot as-is, whatever
  // config produced it — the path for merged multi-region snapshots
  // (appscope_region), whose composite config never matches a scale preset.
  const std::string snapshot = args.get_string("snapshot", "");
  const std::string load = args.get_string("load", "");
  const core::TrafficDataset dataset = [&] {
    if (!load.empty()) {
      std::cerr << "loading snapshot " << load << "...\n";
      return core::TrafficDataset::load(load);
    }
    if (!snapshot.empty()) {
      std::cerr << "loading or generating snapshot " << snapshot << "...\n";
      return core::load_or_generate_snapshot(config, snapshot);
    }
    std::cerr << "generating " << config.country.commune_count
              << "-commune dataset...\n";
    return core::TrafficDataset::generate(config);
  }();

  std::cerr << "running the study (clustering sweep up to k="
            << study_options.cluster.k_max << ")...\n";
  const core::StudyReport report = core::run_study(dataset, study_options);

  if (!trace_path.empty()) {
    const util::TraceRecorder& recorder = util::TraceRecorder::global();
    util::print_trace_summary(
        util::summarize_trace(recorder.snapshot(), "core.run_study"),
        std::cerr);
    std::cerr << "trace will be written to " << trace_path << " on exit\n";
  }

  if (out_path.empty()) {
    core::write_markdown_report(report, dataset, std::cout, report_options);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    core::write_markdown_report(report, dataset, out, report_options);
    std::cerr << "wrote " << out_path << "\n";
  }

  if (!csv_dir.empty()) {
    for (const auto& path : core::export_dataset_csv(dataset, csv_dir)) {
      std::cerr << "wrote " << path << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(argc, argv,
                             {"trace", "scale", "kmax", "snapshot", "load",
                              "no-maps", "out", "csv-dir"});
    if (args.has("help")) {
      std::cout << args.help();
      return 0;
    }
    return run(args);
  } catch (const util::Error& e) {
    std::cerr << "paper_report: " << e.what() << "\n";
    return 1;
  }
}
