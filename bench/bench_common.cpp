#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>

#include "core/dataset_io.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace appscope::bench {

namespace {
std::string scale_name(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::starts_with(arg, "--scale=")) return arg.substr(8);
  }
  if (const char* env = std::getenv("APPSCOPE_SCALE")) return env;
  return "example";
}

std::string trace_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::starts_with(arg, "--trace=")) return arg.substr(8);
  }
  return "";
}
}  // namespace

synth::ScenarioConfig select_scenario(int argc, char** argv) {
  // Every bench binary passes through here first, so this is where the
  // APPSCOPE_METRICS=1 contract is anchored: metrics.json is written at
  // process exit when metrics are enabled. Likewise --trace=PATH (or
  // APPSCOPE_TRACE=PATH) leaves a Chrome trace-event document behind.
  util::write_metrics_at_exit();
  util::enable_trace_export(trace_flag(argc, argv));
  try {
    return synth::ScenarioConfig::for_scale(scale_name(argc, argv));
  } catch (const util::InputError& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

namespace {
std::string snapshot_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::starts_with(arg, "--snapshot=")) return arg.substr(11);
  }
  if (const char* env = std::getenv("APPSCOPE_SNAPSHOT")) return env;
  return "";
}

core::TrafficDataset build_dataset_impl(const synth::ScenarioConfig& config,
                                        const std::string& snapshot) {
  const auto start = std::chrono::steady_clock::now();
  core::TrafficDataset dataset =
      snapshot.empty() ? core::TrafficDataset::generate(config)
                       : core::load_or_generate_snapshot(config, snapshot);
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
}  // namespace

core::TrafficDataset build_dataset(const synth::ScenarioConfig& config) {
  return build_dataset_impl(config, "");
}

core::TrafficDataset build_dataset(const synth::ScenarioConfig& config,
                                   int argc, char** argv) {
  return build_dataset_impl(config, snapshot_path(argc, argv));
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
