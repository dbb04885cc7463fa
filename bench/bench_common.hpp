// bench_common.hpp
//
// Shared plumbing for the figure-reproduction benches: a strict command
// line, scenario selection (test / example / paper scale via --scale or
// APPSCOPE_SCALE), dataset construction, and output helpers. Each bench
// binary regenerates one figure of the paper and prints the same
// rows/series the figure reports, plus a "paper vs measured" summary.
#pragma once

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "synth/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace appscope::bench {

/// A bench's parsed command line and the scenario it selects.
struct BenchArgs {
  util::CliArgs flags;
  /// --scale=test|example|paper, else APPSCOPE_SCALE, else example scale
  /// (4,000 communes — nationwide shape at workstation cost).
  synth::ScenarioConfig config;
};

/// Parses argv strictly. Every bench accepts --scale and --trace=PATH;
/// `valued` names the rest of its "--name=value" flags ("snapshot" when it
/// builds its dataset through build_dataset) and `switches` its switches.
/// --help prints the accepted flags and exits 0 before any work. An
/// undeclared flag, a stray argument, a value on a switch, a valued flag
/// without one or an unknown scale exits 1 with the util::InputError that
/// names it. Otherwise arms the exports: metrics.json at exit when
/// APPSCOPE_METRICS is set, and a Chrome trace for --trace=PATH (or
/// APPSCOPE_TRACE).
BenchArgs parse_args(int argc, char** argv,
                     const std::vector<std::string>& valued = {},
                     const std::vector<std::string>& switches = {});

/// Builds the dataset of args.config and prints a one-paragraph scenario
/// summary. Honors "--snapshot=<path>" (or APPSCOPE_SNAPSHOT): load the
/// binary snapshot at <path> if it exists, otherwise generate and save it
/// there, so repeated bench runs skip dataset generation entirely.
core::TrafficDataset build_dataset(const BenchArgs& args);

/// Prints "<label>: paper=<paper> measured=<measured>".
void print_expectation(const std::string& label, const std::string& paper,
                       const std::string& measured);

/// Writes the normalized benchmark baseline (schema appscope.bench/1):
/// {"schema": "appscope.bench/1", "benchmarks": {"<name>": <real_time_ns>}}.
/// Byte-stable output (sorted keys via util::Json) so the committed
/// BENCH_core.json diffs cleanly; scripts/bench_regression.py compares a
/// fresh run against the committed file.
void write_bench_baseline(const std::string& path,
                          const std::map<std::string, double>& real_time_ns);

}  // namespace appscope::bench
