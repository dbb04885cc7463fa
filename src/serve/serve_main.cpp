// appscope_serve — the always-on streaming ingest daemon. Replays the
// scenario's synthetic event stream (rate-controlled) into the sharded
// ingest plane, seals epoch snapshots that run_study / paper_report can
// load atomically, and reports online peak / Zipf analyses per epoch.
//
// Run:  ./appscope_serve --snapshot-dir=serve_out           (test scale)
//       ./appscope_serve --scale=example --rate=2000000 --duration=30
//       ./appscope_serve --shards=8 --epoch-seconds=21600 --weeks=2
//       APPSCOPE_METRICS=1 ./appscope_serve ...             (metrics JSON)
//       ./appscope_serve --admin-port=9100 ...              (live telemetry)
//
// --admin-port=N (or APPSCOPE_ADMIN_PORT=N) attaches the live telemetry
// plane: /metrics, /healthz, /statusz and /tracez on 127.0.0.1:N (0 binds
// an ephemeral port, printed at startup). --admin-sample-ms tunes the
// sampler cadence; --epoch-stall-seconds and --seal-slo arm the watchdog's
// epoch-stall and seal-latency heuristics.
//
// SIGTERM / SIGINT drain the queues, seal the final partial epoch and exit
// cleanly, so `latest.snapshot` is always a complete, loadable file. A
// second signal skips the drain: the metrics JSON is flushed best-effort
// and the process exits immediately.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "obs/telemetry.hpp"
#include "serve/daemon.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

using namespace appscope;

namespace {

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int sig) {
  if (g_stop.exchange(true, std::memory_order_relaxed)) {
    // Second signal: the drain is stuck or too slow for the operator.
    // Salvage the metrics JSON (best-effort, skipped when disabled) and
    // exit without running atexit handlers against a wedged pipeline.
    util::flush_metrics_best_effort();
    std::_Exit(128 + sig);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(
        argc, argv,
        {"scale", "shards", "queue-capacity", "epoch-seconds",
         "events-per-cell", "rate", "duration", "weeks", "sample-period",
         "force-sampling", "snapshot-dir", "trace", "admin-port", "admin-bind",
         "admin-sample-ms", "epoch-stall-seconds", "seal-slo"});
    if (args.has("help")) {
      std::cout << args.help();
      return 0;
    }
    util::write_metrics_at_exit();
    util::enable_trace_export(args.get_string("trace", ""));

    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);

    serve::ServeConfig config;
    config.scenario =
        synth::ScenarioConfig::for_scale(args.get_string("scale", "test"));
    config.shard_count = args.get_count<std::size_t>("shards", 4);
    config.queue_capacity =
        args.get_count<std::size_t>("queue-capacity", 1 << 16);
    config.epoch_seconds = args.get_count<std::uint32_t>("epoch-seconds", 3600);
    config.events_per_cell = args.get_count<std::size_t>("events-per-cell", 1);
    config.target_events_per_second = args.get_double("rate", 0.0);
    config.duration_seconds = args.get_double("duration", 0.0);
    config.weeks = args.get_count<std::size_t>("weeks", 1);
    config.sample_period = args.get_count<std::uint64_t>("sample-period", 8);
    config.force_sampling = args.has("force-sampling");
    config.snapshot_dir = args.get_string("snapshot-dir", "");
    config.stop_flag = &g_stop;

    // Live telemetry plane: only when asked for via flag or environment.
    std::unique_ptr<obs::TelemetryPlane> telemetry;
    const int admin_port =
        obs::resolve_admin_port(static_cast<int>(args.get_int("admin-port", -1)));
    if (admin_port >= 0) {
      obs::TelemetryOptions topts;
      topts.admin.port = static_cast<std::uint16_t>(admin_port);
      topts.admin.bind_address = args.get_string("admin-bind", "127.0.0.1");
      topts.sampler.interval = std::chrono::milliseconds(
          args.get_count<std::uint32_t>("admin-sample-ms", 1000));
      topts.watchdog.expected_epoch_seconds =
          args.get_double("epoch-stall-seconds", 0.0);
      topts.watchdog.seal_p99_slo_seconds = args.get_double("seal-slo", 0.0);
      telemetry = std::make_unique<obs::TelemetryPlane>(topts);
      telemetry->start();
      std::cerr << "appscope_serve: admin endpoint on http://"
                << topts.admin.bind_address << ":" << telemetry->port()
                << " (/metrics /healthz /statusz /tracez)\n";
    }

    serve::IngestDaemon daemon(config);
    std::cerr << "appscope_serve: " << daemon.week_event_count()
              << " events/week staged, " << config.shard_count
              << " shards, epoch " << config.epoch_seconds << "s";
    if (config.target_events_per_second > 0.0) {
      std::cerr << ", target " << config.target_events_per_second << " ev/s";
    }
    std::cerr << "\n";

    const serve::ServeStats stats = daemon.run();

    std::cerr << "appscope_serve: ingested " << stats.ingested << " events ("
              << stats.sampled << " shed by sampling, "
              << stats.overload_triggers << " overload triggers) in "
              << stats.wall_seconds << "s — " << stats.events_per_second
              << " ev/s\n";
    std::cerr << "appscope_serve: sealed " << stats.epochs_sealed
              << " epochs; rising fronts " << stats.rising_fronts
              << ", zipf rank changes " << stats.zipf_rank_changes
              << ", zipf exponent " << stats.zipf_exponent << "\n";
    if (!stats.latest_snapshot.empty()) {
      std::cerr << "appscope_serve: latest snapshot at "
                << stats.latest_snapshot << "\n";
    }
  } catch (const util::Error& error) {
    std::cerr << "appscope_serve: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
