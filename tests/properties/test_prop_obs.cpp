// Race and determinism properties of the live telemetry plane.
//
// The contract (DESIGN.md §4k): the sampler, the watchdog and the admin
// server are *pure observers*. Attaching the full plane to a serving run —
// sampler thread ticking, HTTP scrapers hammering every endpoint — must
// not change a single byte of the sealed epoch snapshots, at any shard
// count. The suites are named ParallelObs* so the TSan CI preset (which
// runs ^Parallel) races the sampler and scraper threads against the real
// ingest shards under the sanitizer.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "serve/daemon.hpp"
#include "serve/epoch.hpp"
#include "support/metrics_on.hpp"
#include "support/temp_dir.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace appscope::obs {
namespace {

namespace fs = std::filesystem;

using test_support::MetricsOn;

synth::ScenarioConfig tiny_config() {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 50;
  cfg.country.metro_count = 2;
  return cfg;
}

fs::path temp_dir(const std::string& name) {
  const fs::path dir = test_support::temp_path(name);
  fs::remove_all(dir);
  return dir;
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

serve::ServeStats run_daemon(const fs::path& dir, std::size_t shards) {
  serve::ServeConfig config;
  config.scenario = tiny_config();
  config.shard_count = shards;
  config.epoch_seconds = 56 * net::kSecondsPerHour;  // 3 epochs per week
  config.snapshot_dir = dir.string();
  serve::IngestDaemon daemon(config);
  return daemon.run();
}

std::vector<std::string> sealed_bytes(const fs::path& dir) {
  std::vector<std::string> bytes;
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    bytes.push_back(
        file_bytes(dir / io::epoch_filename(epoch)));
  }
  bytes.push_back(file_bytes(dir / "latest.snapshot"));
  return bytes;
}

TEST(ParallelObsPurity, TelemetryPlaneDoesNotPerturbSealedSnapshots) {
  // Baseline: telemetry fully off (gate disabled, no plane).
  std::vector<std::string> baseline;
  {
    const bool was = util::MetricsRegistry::enabled();
    util::MetricsRegistry::set_enabled(false);
    const fs::path dir = temp_dir("baseline");
    const serve::ServeStats stats = run_daemon(dir, 2);
    EXPECT_EQ(stats.epochs_sealed, 3u);
    baseline = sealed_bytes(dir);
    fs::remove_all(dir);
    util::MetricsRegistry::set_enabled(was);
  }

  // Full plane attached, sampler ticking fast, scrapers hammering every
  // endpoint from two threads while the daemon runs.
  for (const std::size_t shards : {2u, 8u}) {
    const MetricsOn guard;
    TelemetryOptions options;
    options.sampler.interval = std::chrono::milliseconds(10);
    TelemetryPlane plane(options);
    plane.start();
    ASSERT_GT(plane.port(), 0);

    std::atomic<bool> done{false};
    std::atomic<int> scrapes{0};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 2; ++t) {
      scrapers.emplace_back([&, t] {
        const char* paths[] = {"/metrics", "/statusz", "/healthz", "/tracez"};
        for (int i = 0; !done.load(std::memory_order_relaxed); ++i) {
          if (!http_get(plane.port(), paths[(i + t) % 4]).empty()) ++scrapes;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }

    const fs::path dir = temp_dir("plane_" + std::to_string(shards));
    const serve::ServeStats stats = run_daemon(dir, shards);
    done.store(true, std::memory_order_relaxed);
    for (auto& s : scrapers) s.join();
    plane.stop();

    EXPECT_EQ(stats.epochs_sealed, 3u);
    EXPECT_GT(scrapes.load(), 0);
    const std::vector<std::string> observed = sealed_bytes(dir);
    ASSERT_EQ(observed.size(), baseline.size());
    for (std::size_t f = 0; f < baseline.size(); ++f) {
      EXPECT_EQ(observed[f], baseline[f])
          << "sealed file " << f << " differs with the telemetry plane "
          << "attached at " << shards << " shards";
    }
    fs::remove_all(dir);
  }
}

TEST(ParallelObsScrape, ConcurrentScrapersSeeConsistentEndpoints) {
  const MetricsOn guard;
  TelemetryOptions options;
  options.sampler.interval = std::chrono::milliseconds(5);
  TelemetryPlane plane(options);
  plane.start();

  // Writers race the sampler while scrapers pull every endpoint.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    auto& registry = util::MetricsRegistry::global();
    while (!done.load(std::memory_order_relaxed)) {
      registry.add("prop.counter");
      registry.gauge("prop.gauge", 1.25);
      registry.observe("prop.hist", 0.5);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  int ok = 0;
  for (int i = 0; i < 30; ++i) {
    const std::string metrics = http_get(plane.port(), "/metrics");
    const std::string statusz = http_get(plane.port(), "/statusz");
    const std::string healthz = http_get(plane.port(), "/healthz");
    if (metrics.find("HTTP/1.1 200") != std::string::npos &&
        statusz.find("appscope.statusz/1") != std::string::npos &&
        healthz.find("HTTP/1.1 200") != std::string::npos) {
      ++ok;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_relaxed);
  writer.join();
  plane.stop();
  EXPECT_EQ(ok, 30);
  EXPECT_GE(plane.sampler().samples(), 1u);
}

}  // namespace
}  // namespace appscope::obs
