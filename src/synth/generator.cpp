#include "synth/generator.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <vector>

#include "la/simd.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"
#include "workload/spatial_profile.hpp"
#include "workload/temporal_profile.hpp"

namespace appscope::synth {

AnalyticGenerator::AnalyticGenerator(const geo::Territory& territory,
                                     const workload::SubscriberBase& subscribers,
                                     const workload::ServiceCatalog& catalog,
                                     std::uint64_t traffic_seed,
                                     double temporal_noise_sigma,
                                     const workload::PresenceModel* presence)
    : territory_(territory),
      subscribers_(subscribers),
      catalog_(catalog),
      seed_(traffic_seed),
      noise_sigma_(temporal_noise_sigma),
      presence_(presence) {
  APPSCOPE_REQUIRE(territory_.size() == subscribers_.commune_count(),
                   "AnalyticGenerator: territory/subscriber mismatch");
  APPSCOPE_REQUIRE(std::isfinite(noise_sigma_) && noise_sigma_ >= 0.0,
                   "AnalyticGenerator: noise sigma must be finite and >= 0");

  const std::size_t n = catalog_.size();
  share_.resize(n);
  share_tgv_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    share_[s].resize(ts::kHoursPerWeek);
    share_tgv_[s].resize(ts::kHoursPerWeek);
    double total = 0.0;
    double total_tgv = 0.0;
    for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
      const double base = catalog_[s].temporal.evaluate(h);
      share_[s][h] = base;
      share_tgv_[s][h] = base * workload::tgv_modulation(h);
      total += base;
      total_tgv += share_tgv_[s][h];
    }
    for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
      share_[s][h] /= total;
      share_tgv_[s][h] /= total_tgv;
    }
  }
}

double AnalyticGenerator::expected_weekly_per_user(workload::ServiceIndex service,
                                                   geo::CommuneId commune,
                                                   workload::Direction d) const {
  APPSCOPE_REQUIRE(service < catalog_.size(), "expected_weekly_per_user: bad service");
  const geo::Commune& c = territory_.commune(commune);
  return weekly_per_user(service, c, d, workload::commune_activity(seed_, c));
}

double AnalyticGenerator::weekly_per_user(workload::ServiceIndex service,
                                          const geo::Commune& commune,
                                          workload::Direction d,
                                          double activity) const {
  const auto& spec = catalog_[service];
  return workload::per_user_rate(spec.spatial, spec.urban_rate(d), commune,
                                 seed_,
                                 service * 2 + static_cast<std::uint64_t>(d),
                                 activity);
}

namespace {
/// Counter word 3 of the generator's Philox blocks: names the temporal
/// jitter stream.
constexpr std::uint32_t kTemporalJitterStream = 0;
}  // namespace

std::size_t AnalyticGenerator::generate_commune(const geo::Commune& commune,
                                                TrafficSink& sink,
                                                RowScratch& scratch) const {
  const std::size_t n_services = catalog_.size();
  const double mu_correction = -0.5 * noise_sigma_ * noise_sigma_;
  const double subs = static_cast<double>(subscribers_.subscribers(commune.id));
  const bool is_tgv = commune.urbanization == geo::Urbanization::kTgv;

  constexpr std::size_t kHours = ts::kHoursPerWeek;
  scratch.jitter.resize(kHours);
  scratch.presence.resize(kHours);
  scratch.downlink.resize(kHours);
  scratch.uplink.resize(kHours);
  // The presence profile depends only on (commune, hour): evaluated once
  // per commune instead of once per (service, hour) cell.
  for (std::size_t h = 0; h < kHours; ++h) {
    scratch.presence[h] =
        presence_ != nullptr ? presence_->presence(commune.id, h) : 1.0;
  }
  if (noise_sigma_ <= 0.0) {
    std::fill(scratch.jitter.begin(), scratch.jitter.end(), 1.0);
  }

  const la::simd::Kernels& kernels = la::simd::active();
  TrafficRow row;
  row.commune = commune.id;
  row.urbanization = commune.urbanization;
  row.downlink_bytes = {scratch.downlink.data(), kHours};
  row.uplink_bytes = {scratch.uplink.data(), kHours};
  // Every service and direction of the commune shares its activity factor.
  const double activity = workload::commune_activity(seed_, commune);
  std::size_t rows = 0;
  for (std::size_t s = 0; s < n_services; ++s) {
    const double weekly_dl =
        weekly_per_user(s, commune, workload::Direction::kDownlink, activity);
    const double weekly_ul =
        weekly_per_user(s, commune, workload::Direction::kUplink, activity);
    if (weekly_dl <= 0.0 && weekly_ul <= 0.0) continue;

    // The week's jitter of this (commune, service): Philox counters
    // {hour pair, service, commune, 0} under the traffic seed, so every
    // value is a pure function of (seed, commune, service, hour) and a
    // skipped service shifts no other service's draws.
    if (noise_sigma_ > 0.0) {
      kernels.lognormal_philox(static_cast<std::uint32_t>(seed_),
                               static_cast<std::uint32_t>(seed_ >> 32),
                               static_cast<std::uint32_t>(s), commune.id,
                               kTemporalJitterStream, mu_correction,
                               noise_sigma_, scratch.jitter.data(), kHours);
    }
    // volume[h] = ((subs * weekly) * hourly[h]) * jitter[h] * presence[h],
    // the cell path's left-to-right product with the loop-invariant prefix
    // hoisted (same doubles: hoisting only reuses an identical product).
    const auto& hourly = is_tgv ? share_tgv_[s] : share_[s];
    kernels.row_scale(subs * weekly_dl, hourly.data(), scratch.jitter.data(),
                      scratch.presence.data(), scratch.downlink.data(), kHours);
    kernels.row_scale(subs * weekly_ul, hourly.data(), scratch.jitter.data(),
                      scratch.presence.data(), scratch.uplink.data(), kHours);
    row.service = s;
    sink.consume_row(row);
    ++rows;
  }
  return rows;
}

namespace {

/// The ordered fold behind AnalyticGenerator::generate. Shards run in any
/// order on the pool, but their rows must reach the sink in shard order,
/// fed by one thread at a time. The thread holding the frontier shard (the
/// lowest one not yet in the sink) is the one that feeds it: a shard that
/// is the frontier when it starts generates straight into the sink, and a
/// shard that runs ahead stages its rows in a RowBufferSink from the spare
/// list and deposits it. The frontier's thread then replays each staged
/// shard the frontier reaches and puts its buffer back on the list; a
/// shard deposited after the frontier's thread looked for it finds itself
/// the frontier and carries on from there. The frontier moves only under
/// the mutex and only by its own thread, so it is the sink's one owner.
/// Generation and replays run outside the mutex. Each staged shard adds
/// one to the synth.generate.staged_shards counter, each buffer made one
/// to synth.generate.staging_buffers.
///
/// Run-ahead is bounded: at most `max_buffers` buffers are ever made, and a
/// shard that is not the frontier waits for a spare one once they all are
/// out, so a sink slower than generation holds the pool back instead of
/// every remaining shard being staged at once. The frontier shard never
/// waits, and the pool claims shards in index order, so the frontier's
/// shard is always running or staged and every wait ends. Failure ends the
/// bound: the frontier stops, so nothing staged would come back.
class FrontierFold {
 public:
  FrontierFold(TrafficSink& sink, std::size_t shard_count,
               std::size_t max_buffers, util::StageTimer& timer)
      : sink_(sink),
        timer_(timer),
        max_buffers_(max_buffers),
        staged_(shard_count) {}

  /// Runs one shard: emit(TrafficSink&) feeds the shard's rows to the sink
  /// it is given and returns how many it fed. A failed shard stops the
  /// frontier for good; every later shard still runs (so the pool rethrows
  /// the lowest-index exception) but drops its rows instead of staging them.
  template <typename Emit>
  void run(std::size_t shard, std::size_t rows_hint, Emit&& emit) {
    try {
      std::unique_lock<std::mutex> lock(mutex_);
      room_.wait(lock, [&] {
        return shard == frontier_ || failed_ || !spare_.empty() ||
               buffers_ < max_buffers_;
      });
      if (shard == frontier_ && !failed_) {
        lock.unlock();
        timer_.add_items(emit(sink_) * ts::kHoursPerWeek);
        lock.lock();
        ++frontier_;
      } else {
        RowBufferSink buffer = take_buffer();
        lock.unlock();
        buffer.reserve(rows_hint);
        emit(buffer);
        lock.lock();
        if (failed_) {
          buffer.clear();
          spare_.push_back(std::move(buffer));
          return;
        }
        staged_[shard].emplace(std::move(buffer));
        if (util::MetricsRegistry::enabled()) {
          util::MetricsRegistry::global().add("synth.generate.staged_shards");
        }
        if (shard != frontier_) return;
      }
      drain(lock);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      failed_ = true;
      room_.notify_all();
      throw;
    }
  }

 private:
  /// A spare buffer, or a new one. Called holding the lock.
  RowBufferSink take_buffer() {
    RowBufferSink buffer;
    if (!spare_.empty()) {
      buffer = std::move(spare_.back());
      spare_.pop_back();
    } else {
      ++buffers_;
      if (util::MetricsRegistry::enabled()) {
        util::MetricsRegistry::global().add("synth.generate.staging_buffers");
      }
    }
    return buffer;
  }

  /// Called by the frontier's thread, holding the lock, after the frontier
  /// moved: replays staged shards while the frontier's is there, then wakes
  /// the shards waiting for a buffer or for the frontier. The last look and
  /// the return share one lock hold, so a shard deposited during a replay is
  /// either replayed here or finds itself the frontier when it deposits.
  void drain(std::unique_lock<std::mutex>& lock) {
    while (!failed_ && frontier_ < staged_.size() && staged_[frontier_]) {
      RowBufferSink buffer = std::move(*staged_[frontier_]);
      staged_[frontier_].reset();
      lock.unlock();
      {
        const util::ScopedSpan span("synth.generate.fold");
        timer_.add_items(buffer.row_count() * ts::kHoursPerWeek);
        buffer.replay_into(sink_);
      }
      buffer.clear();
      lock.lock();
      spare_.push_back(std::move(buffer));
      ++frontier_;
    }
    room_.notify_all();
  }

  TrafficSink& sink_;
  util::StageTimer& timer_;
  const std::size_t max_buffers_;
  std::mutex mutex_;
  std::condition_variable room_;
  std::size_t frontier_ = 0;
  std::size_t buffers_ = 0;
  bool failed_ = false;
  std::vector<std::optional<RowBufferSink>> staged_;
  std::vector<RowBufferSink> spare_;
};

}  // namespace

void AnalyticGenerator::generate(TrafficSink& sink) const {
  util::StageTimer timer("synth.generate");
  const auto& communes = territory_.communes();
  // Fixed shard grain: the decomposition (and so the row order the sink
  // sees) is the same at every thread count. Each jitter value is keyed by
  // its (seed, commune, service, hour), so shards are independent of the
  // worker that runs them.
  constexpr std::size_t kCommunesPerShard = 32;
  const std::size_t shard_count =
      (communes.size() + kCommunesPerShard - 1) / kCommunesPerShard;
  // Two staging buffers per thread: behind an AggregateSink at 4 threads
  // the fold makes 6-7 of its 8, while one per thread left the threads that
  // deposited waiting on each replay (about 40% more wall time).
  FrontierFold fold(sink, shard_count,
                    2 * util::ThreadPool::global_thread_count(), timer);
  util::parallel_for(0, shard_count, 1, [&](std::size_t shard, std::size_t) {
    const std::size_t lo = shard * kCommunesPerShard;
    const std::size_t hi = std::min(lo + kCommunesPerShard, communes.size());
    fold.run(shard, (hi - lo) * catalog_.size(), [&](TrafficSink& out) {
      // The span times generation alone, except at the frontier, where
      // generation and the sink interleave row by row.
      const util::ScopedSpan span("synth.generate.shard");
      RowScratch scratch;
      std::size_t rows = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        rows += generate_commune(communes[i], out, scratch);
      }
      return rows;
    });
  });
}

}  // namespace appscope::synth
