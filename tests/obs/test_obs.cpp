// Unit and end-to-end tests of the live telemetry plane (src/obs): the
// sample ring, the deterministic sampler tick, every watchdog heuristic
// against fabricated series, the admin HTTP server over real sockets, and
// the acceptance scenario — /healthz flipping to 503 when one ingest shard
// is wedged while traffic flows.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/event.hpp"
#include "obs/admin.hpp"
#include "obs/ring.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "serve/ingest.hpp"
#include "support/metrics_on.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace appscope::obs {
namespace {

using test_support::MetricsOn;

/// Minimal HTTP client for the e2e tests: one request, read to EOF.
std::string http_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port,
                      "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const std::size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : response.substr(sep + 4);
}

SeriesSnapshot make_series(const char* name, SeriesKind kind,
                           const std::vector<double>& values,
                           std::uint64_t total = 0) {
  SeriesSnapshot s;
  s.name = name;
  s.kind = kind;
  s.total = total;
  for (const double v : values) s.ring.push(v);
  return s;
}

// ---------------------------------------------------------------------------
// SampleRing

TEST(ObsRing, PushWrapsAndBackIndexesFromNewest) {
  SampleRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  for (int i = 1; i <= 3; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_DOUBLE_EQ(ring.newest(), 3.0);
  EXPECT_DOUBLE_EQ(ring.back(2), 1.0);

  for (int i = 4; i <= 200; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), kRingCapacity);
  EXPECT_DOUBLE_EQ(ring.newest(), 200.0);
  // The oldest retained slot is 200 - capacity + 1.
  EXPECT_DOUBLE_EQ(ring.back(kRingCapacity - 1),
                   200.0 - static_cast<double>(kRingCapacity) + 1.0);
}

// ---------------------------------------------------------------------------
// MetricsSampler

TEST(ObsSampler, DeterministicRatesWithExplicitDt) {
  const MetricsOn guard;
  auto& registry = util::MetricsRegistry::global();
  MetricsSampler sampler;

  registry.add("test.counter", 100);
  registry.gauge("test.gauge", 2.5);
  for (int i = 0; i < 4; ++i) registry.observe("test.hist", 0.5);
  sampler.sample_once(1.0);

  SeriesSnapshot snap;
  ASSERT_TRUE(sampler.series("test.counter", snap));
  EXPECT_EQ(snap.kind, SeriesKind::kCounterRate);
  EXPECT_DOUBLE_EQ(snap.ring.newest(), 100.0);
  EXPECT_EQ(snap.total, 100u);

  registry.add("test.counter", 50);
  sampler.sample_once(2.0);
  ASSERT_TRUE(sampler.series("test.counter", snap));
  EXPECT_DOUBLE_EQ(snap.ring.newest(), 25.0);  // 50 new over 2 s
  EXPECT_EQ(snap.total, 150u);
  EXPECT_EQ(snap.ring.size(), 2u);

  ASSERT_TRUE(sampler.series("test.gauge", snap));
  EXPECT_EQ(snap.kind, SeriesKind::kGauge);
  EXPECT_DOUBLE_EQ(snap.ring.newest(), 2.5);

  ASSERT_TRUE(sampler.series("test.hist", snap));
  EXPECT_EQ(snap.kind, SeriesKind::kHistogramRate);
  EXPECT_EQ(snap.total, 4u);
  EXPECT_DOUBLE_EQ(snap.ring.back(1), 4.0);  // 4 observations over 1 s
  EXPECT_DOUBLE_EQ(snap.ring.newest(), 0.0);  // none in the second tick
  // Interval p99 of the first tick resolves inside 0.5's bucket.
  EXPECT_GE(snap.p99.back(1), 0.5);
  EXPECT_LE(snap.p99.back(1), 1.0);

  EXPECT_EQ(sampler.samples(), 2u);
  EXPECT_FALSE(sampler.series("no.such.metric", snap));
}

TEST(ObsSampler, BackgroundThreadTicksAndRunsHook) {
  const MetricsOn guard;
  std::atomic<int> hooks{0};
  MetricsSampler sampler({std::chrono::milliseconds(5)});
  sampler.set_on_sample([&hooks] { ++hooks; });
  sampler.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (hooks.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.stop();
  EXPECT_GE(hooks.load(), 3);
  EXPECT_GE(sampler.samples(), 3u);
}

// ---------------------------------------------------------------------------
// HealthWatchdog (stateless evaluation over fabricated series)

WatchdogOptions tight_options() {
  WatchdogOptions options;
  options.startup_grace_seconds = 0.0;
  options.queue_rise_window = 4;
  options.queue_depth_floor = 8.0;
  options.flatline_window = 4;
  return options;
}

TEST(ObsWatchdog, QueueBacklogNeedsStrictMonotoneRiseAboveFloor) {
  const MetricsOn guard;
  MetricsSampler sampler;
  HealthWatchdog watchdog(sampler, tight_options());

  const auto verdict = [&](const std::vector<double>& depths) {
    return watchdog
        .evaluate({make_series("serve.queue.depth.max", SeriesKind::kGauge,
                               depths)},
                  /*uptime_seconds=*/100.0, /*tick_seconds=*/1.0)
        .healthy;
  };
  EXPECT_FALSE(verdict({10, 20, 30, 40}));
  EXPECT_FALSE(verdict({1, 2, 10, 20, 30, 40}));
  // A dip inside the window is not a backlog.
  EXPECT_TRUE(verdict({10, 20, 15, 40}));
  // Rising but still below the floor: noise, not a stall.
  EXPECT_TRUE(verdict({1, 2, 3, 4}));
  // Too little history.
  EXPECT_TRUE(verdict({10, 20}));
}

TEST(ObsWatchdog, StartupGraceSuppressesVerdicts) {
  const MetricsOn guard;
  MetricsSampler sampler;
  WatchdogOptions options = tight_options();
  options.startup_grace_seconds = 30.0;
  HealthWatchdog watchdog(sampler, options);
  const std::vector<SeriesSnapshot> series = {
      make_series("serve.queue.depth.max", SeriesKind::kGauge,
                  {10, 20, 30, 40})};
  EXPECT_TRUE(watchdog.evaluate(series, 5.0, 1.0).healthy);
  EXPECT_FALSE(watchdog.evaluate(series, 60.0, 1.0).healthy);
}

TEST(ObsWatchdog, EpochStallCountsFlatTicksAgainstExpectedInterval) {
  const MetricsOn guard;
  MetricsSampler sampler;
  WatchdogOptions options = tight_options();
  options.expected_epoch_seconds = 10.0;  // stall after 3x10 s without a seal
  HealthWatchdog watchdog(sampler, options);

  std::vector<double> recent_seal = {1};  // sealed on the newest tick
  std::vector<double> stale = {1};
  stale.insert(stale.end(), 35, 0.0);  // 35 flat ticks since the last seal
  EXPECT_TRUE(watchdog
                  .evaluate({make_series("serve.epochs.sealed",
                                         SeriesKind::kCounterRate, recent_seal,
                                         /*total=*/1)},
                            100.0, 1.0)
                  .healthy);
  const HealthStatus stalled = watchdog.evaluate(
      {make_series("serve.epochs.sealed", SeriesKind::kCounterRate, stale,
                   /*total=*/1)},
      100.0, 1.0);
  EXPECT_FALSE(stalled.healthy);
  EXPECT_NE(stalled.reason.find("epoch"), std::string::npos);

  // A run that never sealed anything counts its whole uptime as flat.
  EXPECT_FALSE(watchdog.evaluate({}, 100.0, 1.0).healthy);
  EXPECT_TRUE(watchdog.evaluate({}, 20.0, 1.0).healthy);
}

TEST(ObsWatchdog, ShardStarvationNeedsFlatAndAdvancing) {
  const MetricsOn guard;
  MetricsSampler sampler;
  HealthWatchdog watchdog(sampler, tight_options());

  const auto verdict = [&](std::vector<double> shard0,
                           std::vector<double> shard1) {
    return watchdog
        .evaluate({make_series("serve.shard.0.events", SeriesKind::kGauge,
                               shard0),
                   make_series("serve.shard.1.events", SeriesKind::kGauge,
                               shard1)},
                  100.0, 1.0)
        .healthy;
  };
  // Shard 0 wedged at 50 while shard 1 keeps processing.
  EXPECT_FALSE(verdict({50, 50, 50, 50}, {100, 200, 300, 400}));
  // Both advancing: healthy.
  EXPECT_TRUE(verdict({50, 60, 70, 80}, {100, 200, 300, 400}));
  // Both flat (no traffic at all): idle, not starved.
  EXPECT_TRUE(verdict({50, 50, 50, 50}, {400, 400, 400, 400}));
  // A shard that never processed anything is an empty route map.
  EXPECT_TRUE(verdict({0, 0, 0, 0}, {100, 200, 300, 400}));
}

TEST(ObsWatchdog, SealLatencySloUsesIntervalP99) {
  const MetricsOn guard;
  MetricsSampler sampler;
  WatchdogOptions options = tight_options();
  options.seal_p99_slo_seconds = 1.0;
  HealthWatchdog watchdog(sampler, options);

  SeriesSnapshot h;
  h.name = "serve.epoch.seal_wall_seconds";
  h.kind = SeriesKind::kHistogramRate;
  h.ring.push(1.0);
  h.p99.push(2.0);  // p99 above the 1 s SLO
  const HealthStatus breach = watchdog.evaluate({h}, 100.0, 1.0);
  EXPECT_FALSE(breach.healthy);
  EXPECT_NE(breach.reason.find("SLO"), std::string::npos);

  SeriesSnapshot ok = h;
  ok.p99.push(0.5);
  EXPECT_TRUE(watchdog.evaluate({ok}, 100.0, 1.0).healthy);
}

TEST(ObsWatchdog, StatefulEvaluateCountsFlips) {
  const MetricsOn guard;
  MetricsSampler sampler;
  HealthWatchdog watchdog(sampler, tight_options());
  // No serve metrics at all: a bare sampler is healthy.
  EXPECT_TRUE(watchdog.evaluate().healthy);
  EXPECT_TRUE(watchdog.last().healthy);
  EXPECT_EQ(watchdog.stalls(), 0u);
}

// ---------------------------------------------------------------------------
// AdminServer over real sockets

TEST(ObsAdmin, ServesRegisteredPathsOnEphemeralPort) {
  const MetricsOn guard;
  AdminServer server;
  server.handle("/ping", [](const std::string&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "pong\n"};
  });
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const std::string ok = http_get(server.port(), "/ping");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_EQ(body_of(ok), "pong\n");

  // Query strings are stripped before path matching.
  EXPECT_EQ(body_of(http_get(server.port(), "/ping?x=1")), "pong\n");

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  const std::string post =
      http_request(server.port(), "POST /ping HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

  const std::string bad = http_request(server.port(), "garbage\r\n\r\n");
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos);

  EXPECT_EQ(server.requests(), 5u);
  server.stop();
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------------
// TelemetryPlane end-to-end

TEST(ObsTelemetry, EndpointsServeMetricsStatusAndTrace) {
  const MetricsOn guard;
  auto& registry = util::MetricsRegistry::global();
  registry.add("net.ingested", 42);
  registry.observe("serve.epoch.seal_wall_seconds", 0.25);

  TelemetryOptions options;
  options.watchdog.startup_grace_seconds = 0.0;
  TelemetryPlane plane(options);
  // Drive the plane manually (no sampler thread) for determinism.
  plane.sampler().sample_once(1.0);
  plane.watchdog().evaluate();
  plane.admin().start();

  const std::string metrics = http_get(plane.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("net_ingested 42"), std::string::npos);
  EXPECT_NE(metrics.find("serve_epoch_seal_wall_seconds_count 1"),
            std::string::npos);

  EXPECT_EQ(body_of(http_get(plane.port(), "/healthz")), "ok\n");

  // /statusz: parses as JSON and is in canonical byte-stable form — the
  // parse/re-dump round trip reproduces the body bit for bit.
  const std::string statusz = body_of(http_get(plane.port(), "/statusz"));
  const util::Json parsed = util::Json::parse(statusz);
  EXPECT_EQ(parsed.dump(2) + "\n", statusz);
  EXPECT_EQ(parsed.at("schema").as_string(), "appscope.statusz/1");
  EXPECT_TRUE(parsed.at("healthy").as_bool());
  EXPECT_EQ(parsed.at("samples").as_int(), 1);
  EXPECT_TRUE(parsed.at("series").contains("net.ingested"));
  // Frozen sampler state renders the same series bytes on every scrape.
  const util::Json again =
      util::Json::parse(body_of(http_get(plane.port(), "/statusz")));
  EXPECT_EQ(parsed.at("series").dump(), again.at("series").dump());

  {
    const util::ScopedSpan span("obs.test.span");
  }
  const std::string tracez = body_of(http_get(plane.port(), "/tracez"));
  const util::Json trace = util::Json::parse(tracez);
  EXPECT_EQ(trace.at("schema").as_string(), "appscope.tracez/1");
  EXPECT_GE(trace.at("span_count").as_int(), 1);
  EXPECT_NE(tracez.find("obs.test.span"), std::string::npos);

  plane.admin().stop();
}

TEST(ObsTelemetry, ResolveAdminPortPrefersFlagThenEnvironment) {
  ::unsetenv("APPSCOPE_ADMIN_PORT");
  EXPECT_EQ(resolve_admin_port(9100), 9100);
  EXPECT_EQ(resolve_admin_port(0), 0);
  EXPECT_EQ(resolve_admin_port(-1), -1);
  ::setenv("APPSCOPE_ADMIN_PORT", "9200", 1);
  EXPECT_EQ(resolve_admin_port(-1), 9200);
  EXPECT_EQ(resolve_admin_port(9100), 9100);  // flag wins
  ::setenv("APPSCOPE_ADMIN_PORT", "junk", 1);
  EXPECT_EQ(resolve_admin_port(-1), -1);
  ::setenv("APPSCOPE_ADMIN_PORT", "99999", 1);
  EXPECT_EQ(resolve_admin_port(-1), -1);
  ::unsetenv("APPSCOPE_ADMIN_PORT");
}

// The acceptance scenario: wedge one real ingest shard while traffic keeps
// flowing and watch /healthz flip to 503 — then recover.
TEST(ObsTelemetry, HealthzFlipsTo503WhenShardIsPaused) {
  const MetricsOn guard;
  auto& registry = util::MetricsRegistry::global();

  TelemetryOptions options;
  options.watchdog.startup_grace_seconds = 0.0;
  options.watchdog.queue_rise_window = 4;
  options.watchdog.queue_depth_floor = 8.0;
  options.watchdog.flatline_window = 4;
  TelemetryPlane plane(options);
  plane.admin().start();

  serve::ShardedIngest ingest(/*services=*/4, /*communes=*/8, {2, 1 << 10});
  net::ServiceEvent event;
  event.downlink_bytes = 100;
  event.uplink_bytes = 10;

  // The test plays router: route one tick's traffic, publish the gauges the
  // daemon's flush_batch_metrics publishes, take one sampler tick.
  const auto tick = [&](std::size_t to_shard0, std::size_t to_shard1) {
    for (std::size_t i = 0; i < to_shard0; ++i) {
      event.commune = 0;  // commune 0 -> shard 0
      ingest.route(event, 1);
    }
    for (std::size_t i = 0; i < to_shard1; ++i) {
      event.commune = 1;  // commune 1 -> shard 1
      ingest.route(event, 1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::size_t max_depth = 0;
    for (std::size_t s = 0; s < ingest.shard_count(); ++s) {
      max_depth = std::max(max_depth, ingest.queue_depth(s));
      registry.gauge("serve.shard." + std::to_string(s) + ".events",
                     static_cast<double>(ingest.shard_events(s)));
    }
    registry.gauge("serve.queue.depth.max", static_cast<double>(max_depth));
    plane.sampler().sample_once(1.0);
    plane.watchdog().evaluate();
  };

  // Warm up: both shards process traffic, health stays green.
  for (int t = 0; t < 3; ++t) tick(16, 16);
  EXPECT_EQ(body_of(http_get(plane.port(), "/healthz")), "ok\n");

  // Wedge shard 0. Its queue backs up monotonically while shard 1 keeps
  // advancing — both the backlog and the starvation heuristic see it.
  ingest.set_shard_paused(0, true);
  for (int t = 0; t < 6; ++t) tick(16, 16);
  const std::string stalled = http_get(plane.port(), "/healthz");
  EXPECT_NE(stalled.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(body_of(stalled).find("stalled:"), std::string::npos);
  EXPECT_GE(plane.watchdog().stalls(), 1u);
  EXPECT_FALSE(plane.watchdog().last().healthy);

  // Unpause: the backlog drains, the shard advances again, health recovers.
  ingest.set_shard_paused(0, false);
  for (int t = 0; t < 6; ++t) tick(4, 4);
  const std::string recovered = http_get(plane.port(), "/healthz");
  EXPECT_NE(recovered.find("HTTP/1.1 200"), std::string::npos)
      << body_of(recovered);

  ingest.stop();
  plane.admin().stop();
}

}  // namespace
}  // namespace appscope::obs
