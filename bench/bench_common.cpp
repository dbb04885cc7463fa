#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/dataset_io.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace appscope::bench {

BenchArgs parse_args(int argc, char** argv,
                     const std::vector<std::string>& valued,
                     const std::vector<std::string>& switches) {
  const std::string program =
      argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "bench";
  std::vector<std::string> flags = {"scale", "trace"};
  flags.insert(flags.end(), valued.begin(), valued.end());
  flags.insert(flags.end(), switches.begin(), switches.end());
  try {
    util::CliArgs args(argc, argv, std::move(flags));
    if (args.has("help")) {
      std::cout << args.help();
      std::exit(0);
    }
    // Each flag is read once here, so a value on a switch or a bare valued
    // flag exits 1 before any work rather than where the bench reads it.
    for (const std::string& name : valued) args.get_string(name, "");
    for (const std::string& name : switches) args.has(name);
    const char* env = std::getenv("APPSCOPE_SCALE");
    synth::ScenarioConfig config = synth::ScenarioConfig::for_scale(
        args.get_string("scale", env != nullptr ? env : "example"));
    // Every bench binary passes through here first, so this is where the
    // APPSCOPE_METRICS=1 contract is anchored: metrics.json is written at
    // process exit when metrics are enabled. Likewise --trace=PATH (or
    // APPSCOPE_TRACE=PATH) leaves a Chrome trace-event document behind.
    util::write_metrics_at_exit();
    util::enable_trace_export(args.get_string("trace", ""));
    return {std::move(args), std::move(config)};
  } catch (const util::InputError& e) {
    std::cerr << program << ": " << e.what() << "\n";
    std::exit(1);
  }
}

core::TrafficDataset build_dataset(const BenchArgs& args) {
  const char* env = std::getenv("APPSCOPE_SNAPSHOT");
  const std::string snapshot =
      args.flags.get_string("snapshot", env != nullptr ? env : "");
  const auto start = std::chrono::steady_clock::now();
  core::TrafficDataset dataset =
      snapshot.empty() ? core::TrafficDataset::generate(args.config)
                       : core::load_or_generate_snapshot(args.config, snapshot);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  std::cout << "scenario: " << dataset.commune_count() << " communes, "
            << dataset.subscribers().total() << " subscribers, "
            << dataset.service_count() << " services; "
            << (snapshot.empty() ? "generated" : "ready") << " in "
            << util::format_double(elapsed, 2) << " s\n\n";
  return dataset;
}

void print_expectation(const std::string& label, const std::string& paper,
                       const std::string& measured) {
  std::cout << "  " << util::pad_right(label, 46) << " paper: "
            << util::pad_right(paper, 22) << " measured: " << measured << "\n";
}

void write_bench_baseline(const std::string& path,
                          const std::map<std::string, double>& real_time_ns) {
  util::Json::Object benchmarks;
  for (const auto& [name, ns] : real_time_ns) benchmarks[name] = ns;
  util::Json::Object root;
  root["schema"] = "appscope.bench/1";
  root["benchmarks"] = std::move(benchmarks);
  std::ofstream out(path);
  APPSCOPE_REQUIRE(out.good(), "write_bench_baseline: cannot open output");
  out << util::Json(std::move(root)).dump(2) << "\n";
}

}  // namespace appscope::bench
