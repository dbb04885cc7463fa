// appscope/synth/generator.hpp
//
// Streaming analytic traffic generator: evaluates the expected traffic of
// every (service, commune, hour) cell directly from the workload model —
// per-user rates × temporal shares × jitter — and streams the cells into
// aggregation sinks. Statistically this is the large-population limit of
// the event-level net::SessionSimulator (tests verify the two agree), but
// it scales to the nationwide 36k-commune scenario in seconds.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/territory.hpp"
#include "la/aligned.hpp"
#include "synth/sinks.hpp"
#include "workload/catalog.hpp"
#include "workload/mobility.hpp"
#include "workload/population.hpp"

namespace appscope::synth {

class AnalyticGenerator {
 public:
  /// References must outlive the generator. `presence` (optional) applies
  /// the commuter mobility model: each cell's volume is scaled by the
  /// commune's presence multiplier at that hour. `temporal_noise_sigma`
  /// must be finite and >= 0 (util::PreconditionError otherwise).
  AnalyticGenerator(const geo::Territory& territory,
                    const workload::SubscriberBase& subscribers,
                    const workload::ServiceCatalog& catalog,
                    std::uint64_t traffic_seed, double temporal_noise_sigma,
                    const workload::PresenceModel* presence = nullptr);

  /// Streams the full week into `sink`.
  ///
  /// Each (commune, service) row's hourly jitter is exp(mu + sigma z) with
  /// mu = -sigma^2 / 2 (unit mean), drawn by la::simd's lognormal_philox
  /// kernel from Philox4x32-10 counters {hour pair, service, commune, 0}
  /// under the traffic seed: a pure function of (seed, commune, service,
  /// hour), bitwise the same under every SIMD dispatch.
  ///
  /// Communes are sharded 32 at a time across the global util::ThreadPool
  /// (each shard a synth.generate.shard span) and reach `sink` in commune
  /// order, fed by one thread at a time. The shard at the fold frontier
  /// generates straight into `sink`; a shard that runs ahead of it stages
  /// its (service, commune) rows in a reused RowBufferSink, replayed once
  /// the frontier reaches it (each replay a synth.generate.fold span,
  /// counted by the synth.generate.staged_shards counter). At most two
  /// buffers per pool thread are made (synth.generate.staging_buffers);
  /// once they are all out, a shard that is not the frontier waits for
  /// one, so a slow sink holds generation back. At 1 thread and inside a
  /// pool task nothing is staged. The sink therefore sees the
  /// identical row sequence at any thread count, so outputs are bitwise
  /// equal to a single-threaded run. If a shard throws, the lowest-index
  /// exception is rethrown and the sink's contents are unspecified.
  void generate(TrafficSink& sink) const;

  /// Expected (noise-free) weekly per-user volume of a service in a commune.
  double expected_weekly_per_user(workload::ServiceIndex service,
                                  geo::CommuneId commune,
                                  workload::Direction d) const;

 private:
  /// Per-worker scratch for generate_commune: one week of jitter, presence
  /// and per-direction volumes, reused across every service and commune a
  /// worker generates (cache-line aligned for the row_scale kernel; no
  /// allocations in the hot loop after first use).
  struct RowScratch {
    la::AlignedVector<double> jitter;
    la::AlignedVector<double> presence;
    la::AlignedVector<double> downlink;
    la::AlignedVector<double> uplink;
  };

  /// Feeds the commune's rows to `sink`; returns how many.
  std::size_t generate_commune(const geo::Commune& commune, TrafficSink& sink,
                               RowScratch& scratch) const;

  /// expected_weekly_per_user given the commune's
  /// workload::commune_activity.
  double weekly_per_user(workload::ServiceIndex service,
                         const geo::Commune& commune, workload::Direction d,
                         double activity) const;

  const geo::Territory& territory_;
  const workload::SubscriberBase& subscribers_;
  const workload::ServiceCatalog& catalog_;
  std::uint64_t seed_;
  double noise_sigma_;
  const workload::PresenceModel* presence_ = nullptr;
  /// [service][hour] weekly share, for regular and TGV communes.
  std::vector<std::vector<double>> share_;
  std::vector<std::vector<double>> share_tgv_;
};

}  // namespace appscope::synth
