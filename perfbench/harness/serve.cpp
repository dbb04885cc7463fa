// serve-hourly: the daemon operator's workload. A test-scale
// serve::IngestDaemon, unthrottled, router plus 3 shards, replays several
// weeks with hourly seals into a fresh directory per run. The traced run
// drives the daemon's public pieces (ShardedIngest, the two trackers,
// EpochSealer) in the daemon's order under harness spans, and its final
// latest.snapshot must be byte-identical to the daemon's.
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "io/snapshot.hpp"
#include "pipeline.hpp"
#include "query/snapshot_view.hpp"
#include "serve/daemon.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace serve = appscope::serve;

constexpr std::size_t kShards = 3;
constexpr std::size_t kWeeks = 2;
constexpr std::uint64_t kSalt = 2;

/// Invariants of one sealed run: every epoch file opens as a SnapshotView,
/// one file per sealed epoch, and latest.snapshot holds exactly the staged
/// volumes times the replayed weeks. Each sealed epoch is one operation.
void check_sealed(const std::string& dir, std::uint64_t epochs_sealed,
                  const World& world, Outcome& out) {
  out.attempted += epochs_sealed;
  std::uint64_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("epoch_") || !name.ends_with(".snapshot")) continue;
    ++files;
    try {
      const appscope::query::SnapshotView view(entry.path().string());
    } catch (const std::exception& e) {
      out.fail("serve: " + name + " does not open: " + e.what());
    }
  }
  if (files != epochs_sealed) {
    out.fail("serve: " + std::to_string(files) + " epoch files for " +
             std::to_string(epochs_sealed) + " sealed epochs");
  }
  const auto latest = appscope::io::read_snapshot(dir + "/latest.snapshot");
  const double dl = static_cast<double>(world.replay->staged_downlink_bytes() * kWeeks);
  const double ul = static_cast<double>(world.replay->staged_uplink_bytes() * kWeeks);
  if (latest.aggregates.downlink_total != dl || latest.aggregates.uplink_total != ul) {
    out.fail("serve: latest.snapshot totals differ from staged volumes x weeks");
  }
}

}  // namespace

Outcome run_serve(const Options& options) {
  Outcome out;
  // Router + 3 shard workers; the pool stays inline so nothing else runs.
  appscope::util::ThreadPool::set_global_threads(1);
  const auto scenario =
      seeded(appscope::synth::ScenarioConfig::test_scale(), options.seed, kSalt);
  const World world(scenario);
  const double events_per_run =
      static_cast<double>(world.replay->week_event_count() * kWeeks);

  const double phase = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> run_ms;
  std::vector<double> eps;
  std::uint64_t daemon_latest_hash = 0;
  const auto start = Clock::now();
  while (run_ms.empty() || seconds_between(start, Clock::now()) < phase) {
    const std::string dir = fresh_dir(options, "serve");
    const auto cfg = daemon_config(scenario, kShards, kWeeks, 0.0, dir);
    const auto t0 = Clock::now();
    serve::IngestDaemon daemon(cfg);
    const auto t1 = Clock::now();
    const serve::ServeStats stats = daemon.run();
    const auto t2 = Clock::now();
    out.setup_s.push_back(seconds_between(t0, t1));
    run_ms.push_back(seconds_between(t1, t2) * 1e3);
    eps.push_back(events_per_run / seconds_between(t1, t2));
    check_sealed(dir, stats.epochs_sealed, world, out);
    if (daemon_latest_hash == 0) daemon_latest_hash = file_hash(dir + "/latest.snapshot");
    remove_tree(dir);
    settle_disk();
  }
  out.latency_name = "IngestDaemon::run over " + std::to_string(kWeeks) +
                     " weeks with hourly seals";
  out.figures.push_back({"ingest_eps", median(eps), "1/s", eps.size()});
  if (!options.trace) {
    out.latency_ms = run_ms;
    return out;
  }

  std::map<std::string, std::vector<double>> per_run;
  std::vector<double> traced_ms;
  const auto traced_start = Clock::now();
  while (traced_ms.empty() || seconds_between(traced_start, Clock::now()) < phase) {
    const std::string dir = fresh_dir(options, "serve-traced");
    const auto cfg = daemon_config(scenario, kShards, kWeeks, 0.0, dir);
    Tracer tracer;
    const auto t0 = Clock::now();
    const PipelineRun run = drive_pipeline(cfg, world, tracer);
    const double wall = seconds_between(t0, Clock::now());
    traced_ms.push_back(wall * 1e3);
    check_sealed(dir, run.epochs_sealed, world, out);
    if (file_hash(dir + "/latest.snapshot") != daemon_latest_hash) {
      out.fail("serve: traced pipeline's latest.snapshot differs from the daemon's");
    }
    remove_tree(dir);
    settle_disk();

    const double collect = tracer.total("serve.collect_s");
    const double trackers = tracer.total("serve.trackers_s");
    const double seal = tracer.total("io.seal_s");
    std::vector<double> seal_ms = tracer.durations("io.seal_s");
    for (double& v : seal_ms) v *= 1e3;
    per_run["serve.route_s"].push_back(tracer.total("serve.route_s"));
    per_run["serve.collect_s"].push_back(collect);
    per_run["serve.trackers_s"].push_back(trackers);
    per_run["io.seal_s"].push_back(seal);
    per_run["io.seal_p50_ms"].push_back(nearest_rank(seal_ms, 50));
    per_run["io.seal_p90_ms"].push_back(nearest_rank(seal_ms, 90));
    per_run["io.sealed_bytes"].push_back(static_cast<double>(run.sealed_bytes));
    per_run["serve.backpressure_spins"].push_back(static_cast<double>(run.backpressure_spins));
    per_run["serve.seal_share"].push_back((collect + trackers + seal) / wall);
  }
  for (const auto& [layer, values] : per_run) out.layers[layer] = median(values);
  out.layers["synth.replay_stage_s"] = world.stage_seconds;
  out.layers["trace.overhead_ms"] = median(traced_ms) - median(run_ms);
  return out;
}

}  // namespace perfbench
