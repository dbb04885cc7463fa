// follow-paced: writers and readers on the same files at once. A test-scale
// IngestDaemon (router plus 2 shards, hourly seals) is paced open-loop by
// its RatePacer at a fixed rate well below saturation; one reader thread
// polls query::Follower::refresh() on a fixed interval and, on every new
// view, runs a fixed slice mix through query::Engine::run. Each answer is
// mapped back to the one epoch whose cumulative volume it equals.
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "harness.hpp"
#include "pipeline.hpp"
#include "query/engine.hpp"
#include "query/follower.hpp"
#include "serve/daemon.hpp"
#include "ts/calendar.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace query = appscope::query;
namespace serve = appscope::serve;

constexpr std::size_t kShards = 2;
/// Replay rate: a few percent of what router plus 2 shards sustain with
/// hourly seals, so the generator stays on schedule.
constexpr double kEventsPerSecond = 200000.0;
constexpr auto kPollInterval = std::chrono::milliseconds(1);
constexpr std::size_t kSetupReps = 3;
constexpr std::uint64_t kSalt = 3;

/// When, relative to the replay's start, the last event of each epoch is
/// due under the pacer's schedule.
class Schedule {
 public:
  explicit Schedule(const World& world) : prefix_(appscope::ts::kHoursPerWeek + 1, 0) {
    for (std::size_t h = 0; h < appscope::ts::kHoursPerWeek; ++h) {
      prefix_[h + 1] = prefix_[h] + world.replay->hour_events(h).size();
    }
  }
  double due_seconds(std::uint64_t epoch) const {
    const std::uint64_t hours = prefix_.size() - 1;
    const std::uint64_t events =
        (epoch / hours) * prefix_.back() + prefix_[epoch % hours + 1];
    return static_cast<double>(events) / kEventsPerSecond;
  }
  std::uint64_t week_events() const { return prefix_.back(); }

 private:
  std::vector<std::uint64_t> prefix_;
};

EpochLedger make_ledger(const World& world) {
  std::vector<std::uint64_t> volume(appscope::ts::kHoursPerWeek, 0);
  for (std::size_t h = 0; h < volume.size(); ++h) {
    for (const auto& event : world.replay->hour_events(h)) {
      volume[h] += event.downlink_bytes;
    }
  }
  return EpochLedger(std::move(volume));
}

struct Session {
  std::vector<double> visible_ms;
  std::vector<double> query_us;
  /// Per-layer samples, keyed by layer metric name.
  std::map<std::string, std::vector<double>> layers;
};

/// Runs `produce` (the paced writer) on its own thread while this thread
/// follows the publish directory, until the writer is done and no newer
/// view appears. `traced` adds the traced-only probe (publish-to-poll gap).
Session follow(const serve::ServeConfig& cfg, const Schedule& schedule,
               const EpochLedger& ledger, const std::function<void()>& produce,
               bool traced, Outcome& out) {
  Session session;
  std::atomic<bool> done{false};
  std::string writer_error;
  double writer_seconds = 0.0;
  const auto origin = Clock::now();
  std::thread writer([&] {
    try {
      produce();
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
    writer_seconds = seconds_between(origin, Clock::now());
    done.store(true, std::memory_order_release);
  });

  query::Follower follower(cfg.snapshot_dir);
  query::Engine::Options engine_options;
  engine_options.cache_capacity = 0;  // every view is fresh; time the scan
  query::Engine engine(engine_options);

  query::Slice topk;
  topk.source = query::Source::kCommuneTotals;
  topk.op = query::Op::kTopK;
  topk.group_by = query::GroupBy::kCommune;
  topk.k = 10;
  query::Slice urban_by_hour;
  urban_by_hour.source = query::Source::kUrbanization;
  urban_by_hour.group_by = query::GroupBy::kHour;

  std::shared_ptr<const query::SnapshotView> last;
  std::optional<std::uint64_t> last_epoch;
  const auto timed = [&](const query::SnapshotView& view, const query::Slice& slice,
                         const char* layer) {
    const auto t0 = Clock::now();
    query::Result result = engine.run(view, slice);
    const double us = seconds_between(t0, Clock::now()) * 1e6;
    session.query_us.push_back(us);
    session.layers[layer].push_back(us);
    ++out.attempted;
    return result;
  };

  // The writer thread is joined on every path, so a reader error is
  // recorded as a failure rather than escaping past a joinable thread.
  try {
    for (;;) {
      const bool finished = done.load(std::memory_order_acquire);
      std::shared_ptr<const query::SnapshotView> view;
      const auto r0 = Clock::now();
      try {
        view = follower.refresh();
      } catch (const appscope::util::InputError&) {
        // Nothing published yet.
      }
      const double refresh_us = seconds_between(r0, Clock::now()) * 1e6;
      const bool fresh = view != nullptr && view != last;
      if (fresh) {
        last = view;
        session.layers["query.refresh_us"].push_back(refresh_us);
        if (traced) {
          std::error_code ec;
          const auto mtime = fs::last_write_time(view->path(), ec);
          if (!ec) {
            const auto published = std::chrono::file_clock::to_sys(mtime);
            session.layers["follow.poll_gap_ms"].push_back(
                std::chrono::duration<double, std::milli>(
                    std::chrono::system_clock::now() - published)
                    .count());
          }
        }

        const query::Result top = timed(*view, topk, "query.commune_topk_us");
        const auto answered = Clock::now();
        const std::optional<std::uint64_t> epoch = ledger.epoch_of(top.value);
        query::Slice hour_slice;
        hour_slice.hour_begin = static_cast<std::uint32_t>(
            epoch.value_or(0) % appscope::ts::kHoursPerWeek);
        hour_slice.hour_end = hour_slice.hour_begin + 1;
        const query::Result hour = timed(*view, hour_slice, "query.hour_slice_us");
        const query::Result urban = timed(*view, urban_by_hour, "query.urban_by_hour_us");
        session.layers["query.mapped_fraction"].push_back(
            static_cast<double>(view->mapped_bytes()) /
            static_cast<double>(view->file_bytes()));

        if (!epoch) {
          out.fail("follow: top-k total matches no epoch");
          out.fail("follow: hour slice unchecked (no epoch)");
          out.fail("follow: urbanization total unchecked (no epoch)");
        } else {
          if (hour.value != static_cast<double>(ledger.hour_slice(*epoch))) {
            out.fail("follow: hour slice differs from epoch " + std::to_string(*epoch));
          }
          if (ledger.epoch_of(urban.value) != epoch) {
            out.fail("follow: urbanization total differs from epoch " +
                     std::to_string(*epoch));
          }
          if (last_epoch && *epoch < *last_epoch) {
            out.fail("follow: epoch went backwards");
          } else {
            // Every epoch this answer newly covers became visible now.
            const std::uint64_t first = last_epoch ? *last_epoch + 1 : 0;
            for (std::uint64_t e = first; e <= *epoch; ++e) {
              session.visible_ms.push_back(
                  (seconds_between(origin, answered) - schedule.due_seconds(e)) * 1e3);
            }
            last_epoch = epoch;
          }
        }
      }
      if (finished && !fresh) break;
      std::this_thread::sleep_for(kPollInterval);
    }
  } catch (const std::exception& e) {
    out.fail(std::string("follow: reader failed: ") + e.what());
  }
  writer.join();

  if (!writer_error.empty()) out.fail("follow: writer failed: " + writer_error);
  const std::uint64_t epochs = cfg.weeks * appscope::ts::kHoursPerWeek;
  if (last_epoch.value_or(0) + 1 != epochs) {
    out.fail("follow: final epoch " + std::to_string(epochs - 1) + " never seen");
  }
  const double scheduled =
      static_cast<double>(schedule.week_events() * cfg.weeks) / kEventsPerSecond;
  session.layers["follow.generator_lag_ms"].push_back((writer_seconds - scheduled) * 1e3);
  return session;
}

/// Weeks of replay that fit in `seconds` at the fixed rate (at least one).
std::size_t weeks_for(double seconds, const Schedule& schedule) {
  const double week_seconds =
      static_cast<double>(schedule.week_events()) / kEventsPerSecond;
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds / week_seconds));
}

}  // namespace

Outcome run_follow(const Options& options) {
  Outcome out;
  // Router + 2 shards + the reader; engine scans run inline on the reader.
  appscope::util::ThreadPool::set_global_threads(1);
  const auto scenario =
      seeded(appscope::synth::ScenarioConfig::test_scale(), options.seed, kSalt);
  const World world(scenario);
  const Schedule schedule(world);
  const EpochLedger ledger = make_ledger(world);

  const double phase = options.trace ? options.seconds / 2 : options.seconds;
  const std::size_t weeks = weeks_for(phase, schedule);
  const auto new_config = [&] {
    return daemon_config(scenario, kShards, weeks, kEventsPerSecond,
                         fresh_dir(options, "follow"));
  };

  serve::ServeConfig cfg = new_config();
  std::unique_ptr<serve::IngestDaemon> daemon;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<serve::IngestDaemon>(cfg);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const Session untraced = follow(
      cfg, schedule, ledger, [&] { daemon->run(); }, false, out);
  remove_tree(cfg.snapshot_dir);

  const Summary visible = summarize(untraced.visible_ms);
  const Summary queries = summarize(untraced.query_us);
  // The gated sample is the query on a fresh view: event-to-queryable
  // latency waits on the disk (each seal waits for the previous
  // latest.snapshot's writeback), and on a shared host its run medians
  // spread beyond any useful bound; it stays reported above.
  out.latency_name = "query::Engine::run on a freshly published view";
  out.figures.push_back({"visible_p50_ms", visible.p50, "ms", visible.n});
  out.figures.push_back({"visible_p" + std::to_string(visible.tail_pct) + "_ms",
                         visible.tail, "ms", visible.n});
  out.figures.push_back({"query_p50_us", queries.p50, "us", queries.n});
  out.figures.push_back({"query_p" + std::to_string(queries.tail_pct) + "_us",
                         queries.tail, "us", queries.n});
  if (!options.trace) {
    for (const double us : untraced.query_us) out.latency_ms.push_back(us / 1e3);
    return out;
  }

  // Traced phase: the daemon's pieces under harness spans (recorded on the
  // writer thread only), same pacing.
  cfg = new_config();
  Tracer tracer;
  const Session traced = follow(
      cfg, schedule, ledger, [&] { drive_pipeline(cfg, world, tracer); }, true, out);
  remove_tree(cfg.snapshot_dir);
  for (const auto& [layer, values] : traced.layers) out.layers[layer] = median(values);
  out.layers["serve.collect_s"] = tracer.total("serve.collect_s");
  out.layers["serve.trackers_s"] = tracer.total("serve.trackers_s");
  out.layers["io.seal_s"] = tracer.total("io.seal_s");
  std::vector<double> seal_ms = tracer.durations("io.seal_s");
  for (double& v : seal_ms) v *= 1e3;
  out.layers["io.seal_p50_ms"] = nearest_rank(seal_ms, 50);
  out.layers["io.seal_p90_ms"] = nearest_rank(seal_ms, 90);
  out.layers["synth.replay_stage_s"] = world.stage_seconds;
  out.layers["trace.overhead_ms"] = (median(traced.query_us) - queries.p50) / 1e3;
  return out;
}

}  // namespace perfbench
