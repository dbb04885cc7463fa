#include "synth/generator.hpp"

#include <algorithm>

#include "la/simd.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
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
  APPSCOPE_REQUIRE(noise_sigma_ >= 0.0, "AnalyticGenerator: negative noise");

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
  const auto& spec = catalog_[service];
  return workload::per_user_rate(
      spec.spatial, spec.urban_rate(d), territory_.commune(commune), seed_,
      service * 2 + static_cast<std::uint64_t>(d));
}

void AnalyticGenerator::generate_commune(const geo::Commune& commune,
                                         TrafficSink& sink,
                                         RowScratch& scratch) const {
  const std::size_t n_services = catalog_.size();
  const double mu_correction = -0.5 * noise_sigma_ * noise_sigma_;
  const double subs = static_cast<double>(subscribers_.subscribers(commune.id));
  const bool is_tgv = commune.urbanization == geo::Urbanization::kTgv;
  util::Rng noise_rng(
      util::SplitMix64(seed_ ^ (0xBEEFULL + commune.id * 0x9E3779B97F4A7C15ULL))
          .next());

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
  for (std::size_t s = 0; s < n_services; ++s) {
    const double weekly_dl =
        expected_weekly_per_user(s, commune.id, workload::Direction::kDownlink);
    const double weekly_ul =
        expected_weekly_per_user(s, commune.id, workload::Direction::kUplink);
    if (weekly_dl <= 0.0 && weekly_ul <= 0.0) continue;

    // One jitter draw per hour, in hour order — the same stream positions
    // the cell-at-a-time loop consumed (skipped services draw nothing).
    if (noise_sigma_ > 0.0) {
      for (std::size_t h = 0; h < kHours; ++h) {
        scratch.jitter[h] = noise_rng.lognormal(mu_correction, noise_sigma_);
      }
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
  }
}

void AnalyticGenerator::generate(TrafficSink& sink) const {
  util::StageTimer timer("synth.generate");
  const auto& communes = territory_.communes();
  // Fixed shard grain: the decomposition (and so the replay order) is the
  // same at every thread count. Each commune's noise stream is seeded by
  // its id, so shards are independent of the worker that runs them.
  constexpr std::size_t kCommunesPerShard = 32;
  util::parallel_map_reduce<RowBufferSink>(
      0, communes.size(), kCommunesPerShard,
      [&](std::size_t lo, std::size_t hi) {
        RowBufferSink buffer;
        buffer.reserve((hi - lo) * catalog_.size());
        RowScratch scratch;
        for (std::size_t i = lo; i < hi; ++i) {
          generate_commune(communes[i], buffer, scratch);
        }
        return buffer;
      },
      [&sink, &timer](RowBufferSink&& buffer, std::size_t) {
        // Items/bytes accounting per shard (not per cell) keeps the
        // instrumented hot path allocation- and atomic-light. Items stay
        // cell-granular for continuity with the cell-at-a-time generator.
        timer.add_items(buffer.row_count() * ts::kHoursPerWeek);
        timer.add_bytes(buffer.buffered_bytes());
        buffer.replay_into(sink);
      });
}

}  // namespace appscope::synth
