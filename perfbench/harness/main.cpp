// appscope_perfbench: runs one benchmark workload and prints its metrics.
//
//   appscope_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      [--work-dir <dir>]
//
// Workloads: study-example, serve-hourly, follow-paced, region-cold (see
// perfbench/README.md). Human-readable lines come first: the host
// fingerprint, each figure under its own name with its sample count, and
// any check violations. The last line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "la/simd.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("model name")) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

void print_host() {
  std::cout << "host: {\"cpu\": " << json_string(cpu_model())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"simd\": " << json_string(appscope::la::simd::active_name())
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}\n";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const Outcome& out) {
  const Summary latency = summarize(out.latency_ms);
  std::cout << "latency sample: " << out.latency_name << "\n"
            << "latency_p50_ms = " << latency.p50 << " ms (n=" << latency.n << ")\n"
            << "latency tail: p" << latency.tail_pct << " = " << latency.tail
            << " ms (n=" << latency.n << ")\n"
            << "latency samples: min " << nearest_rank(out.latency_ms, 1) << " p10 "
            << nearest_rank(out.latency_ms, 10) << " p25 "
            << nearest_rank(out.latency_ms, 25) << " p75 " << nearest_rank(out.latency_ms, 75)
            << " max " << nearest_rank(out.latency_ms, 100) << " ms\n";
  return {{"setup_s", median(out.setup_s), "s"}, {"latency_p50_ms", latency.p50, "ms"}};
}

std::vector<Metric> per_layer(Outcome& out) {
  out.layers["mem.peak_rss_mb"] = peak_rss_mb();
  std::vector<Metric> metrics;
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = out.layers.find(m.name);
    metrics.push_back({m.name, it == out.layers.end() ? 0.0 : it->second, m.unit});
  }
  return metrics;
}

int usage() {
  std::cerr << "usage: appscope_perfbench --workload <study-example|serve-hourly|"
               "follow-paced|region-cold> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.work_dir = ".bench_build/perfbench-work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--work-dir") options.work_dir = value;
    else return usage();
  }
  if (argc % 2 == 0 || !(options.seconds > 0.0)) return usage();

  Outcome (*workload)(const Options&) = nullptr;
  if (options.workload == "study-example") workload = run_study;
  else if (options.workload == "serve-hourly") workload = run_serve;
  else if (options.workload == "follow-paced") workload = run_follow;
  else if (options.workload == "region-cold") workload = run_region;
  else return usage();

  print_host();
  std::cout << "workload: " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace << "\n";
  Outcome out;
  try {
    std::filesystem::create_directories(options.work_dir);
    out = workload(options);
  } catch (const std::exception& e) {
    std::cerr << "appscope_perfbench: " << options.workload << ": " << e.what() << "\n";
    return 1;
  }

  std::cout << "setup_s = " << median(out.setup_s) << " s (median of "
            << out.setup_s.size() << ")\n";
  for (const Figure& f : out.figures) {
    std::cout << f.name << " = " << f.value << " " << f.unit << " (n=" << f.samples << ")\n";
  }
  std::cout << "peak_rss_mb = " << peak_rss_mb() << " MB\n";
  std::cout << "operations: attempted=" << out.attempted << " failed=" << out.failed << "\n";
  for (const std::string& f : out.failures) std::cout << "violation: " << f << "\n";

  const std::vector<Metric> metrics = options.trace ? per_layer(out) : end_to_end(out);
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
