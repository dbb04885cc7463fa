#include "harness.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "util/mem_stats.hpp"

namespace perfbench {

namespace fs = std::filesystem;

void Outcome::fail(const std::string& message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(message);
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"synth.generate_s", "s"},
      {"synth.replay_stage_s", "s"},
      {"core.clustering_s", "s"},
      {"ts.kshape_refine_s", "s"},
      {"ts.sbd_matrix_s", "s"},
      {"core.correlation_s", "s"},
      {"core.other_analyses_s", "s"},
      {"core.report_render_s", "s"},
      {"serve.route_s", "s"},
      {"serve.backpressure_spins", "count"},
      {"serve.collect_s", "s"},
      {"serve.trackers_s", "s"},
      {"io.seal_s", "s"},
      {"io.seal_p50_ms", "ms"},
      {"io.seal_p90_ms", "ms"},
      {"io.sealed_bytes", "count"},
      {"serve.seal_share", "ratio"},
      {"query.refresh_us", "us"},
      {"query.hour_slice_us", "us"},
      {"query.commune_topk_us", "us"},
      {"query.urban_by_hour_us", "us"},
      {"query.mapped_fraction", "ratio"},
      {"follow.poll_gap_ms", "ms"},
      {"follow.generator_lag_ms", "ms"},
      {"region.orchestrate_s", "s"},
      {"region.load_s", "s"},
      {"region.merge_s", "s"},
      {"region.write_s", "s"},
      {"region.compare_s", "s"},
      {"io.bytes_written", "count"},
      {"io.bytes_read", "count"},
      {"mem.peak_rss_mb", "MB"},
      {"trace.overhead_ms", "ms"},
  };
  return kMetrics;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL +
                    0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

appscope::synth::ScenarioConfig seeded(appscope::synth::ScenarioConfig config,
                                       std::uint64_t seed, std::uint64_t salt) {
  config.traffic_seed = derive_seed(seed, salt);
  return config;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.seconds;
  }
  return sum;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds);
  }
  return out;
}

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HashStream hs;
  hs << in.rdbuf();
  return hs.hash();
}

std::string fresh_dir(const Options& options, const std::string& stem) {
  static std::atomic<std::uint64_t> counter{0};
  const fs::path dir = fs::path(options.work_dir) /
                       (stem + "-" + std::to_string(counter.fetch_add(1)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

void settle_disk() { ::sync(); }

double peak_rss_mb() {
  return static_cast<double>(appscope::util::peak_rss_bytes()) / 1e6;
}

}  // namespace perfbench
