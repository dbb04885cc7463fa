#include "net/simulator.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "geo/spatial_index.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "workload/spatial_profile.hpp"
#include "workload/temporal_profile.hpp"

namespace appscope::net {

SessionSimulator::SessionSimulator(const geo::Territory& territory,
                                   const workload::SubscriberBase& subscribers,
                                   const workload::ServiceCatalog& catalog,
                                   const BaseStationRegistry& cells,
                                   const DpiEngine& dpi, SessionSimConfig config)
    : territory_(territory),
      subscribers_(subscribers),
      catalog_(catalog),
      cells_(cells),
      dpi_(dpi),
      config_(std::move(config)) {
  APPSCOPE_REQUIRE(territory_.size() == subscribers_.commune_count(),
                   "SessionSimulator: territory/subscriber mismatch");
  APPSCOPE_REQUIRE(config_.sessions_per_user_week > 0.0,
                   "SessionSimulator: sessions_per_user_week must be > 0");
  APPSCOPE_REQUIRE(config_.session_thinning > 0.0 &&
                       config_.session_thinning <= 1.0,
                   "SessionSimulator: session_thinning must be in (0,1]");
  APPSCOPE_REQUIRE(config_.fingerprint_visible_fraction >= 0.0 &&
                       config_.fingerprint_visible_fraction <= 1.0,
                   "SessionSimulator: fingerprint fraction must be in [0,1]");
  APPSCOPE_REQUIRE(config_.uli_error_probability >= 0.0 &&
                       config_.uli_error_probability <= 1.0,
                   "SessionSimulator: uli_error_probability must be in [0,1]");
  APPSCOPE_REQUIRE(config_.uli_error_radius_km >= 0.0,
                   "SessionSimulator: uli_error_radius_km must be >= 0");
}

SessionSimReport SessionSimulator::run(const Probe::Sink& sink) {
  util::StageTimer timer("net.session_sim");
  // Co-located gateways with one probe tapping both interfaces (Fig. 1).
  Probe probe(cells_, dpi_);
  probe.set_sink(sink);
  Gateway ggsn(CoreInterface::kGn);
  Gateway pgw(CoreInterface::kS5S8);
  ggsn.attach_probe(&probe);
  pgw.attach_probe(&probe);

  // Pre-compute each service's hourly share of the week, for regular and
  // TGV communes (the latter follow train operating hours).
  const std::size_t n_services = catalog_.size();
  std::vector<std::vector<double>> share(n_services);
  std::vector<std::vector<double>> share_tgv(n_services);
  for (std::size_t s = 0; s < n_services; ++s) {
    share[s].resize(ts::kHoursPerWeek);
    share_tgv[s].resize(ts::kHoursPerWeek);
    double total = 0.0;
    double total_tgv = 0.0;
    for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
      const double base = catalog_[s].temporal.evaluate(h);
      share[s][h] = base;
      share_tgv[s][h] = base * workload::tgv_modulation(h);
      total += share[s][h];
      total_tgv += share_tgv[s][h];
    }
    for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
      share[s][h] /= total;
      share_tgv[s][h] /= total_tgv;
    }
  }

  SessionSimReport report;
  util::Rng rng(config_.seed);
  std::uint64_t opaque_counter = 0;

  // Pre-compute each commune's ULI-confusable neighbours (coarse
  // localization can attribute a session to an adjacent commune).
  const geo::SpatialIndex index(territory_);

  for (const auto& commune : territory_.communes()) {
    const double subs = static_cast<double>(subscribers_.subscribers(commune.id));
    const bool is_tgv = commune.urbanization == geo::Urbanization::kTgv;
    util::Rng commune_rng = rng.fork(commune.id);
    const std::vector<geo::CommuneId> uli_neighbors =
        config_.uli_error_probability > 0.0
            ? index.neighbors(commune.id, config_.uli_error_radius_km)
            : std::vector<geo::CommuneId>{};

    for (std::size_t s = 0; s < n_services; ++s) {
      const auto& spec = catalog_[s];
      const double weekly_dl = workload::per_user_rate(
          spec.spatial, spec.urban_rate(workload::Direction::kDownlink), commune,
          config_.seed, s * 2 + 0);
      if (weekly_dl <= 0.0) continue;
      const double weekly_ul = workload::per_user_rate(
          spec.spatial, spec.urban_rate(workload::Direction::kUplink), commune,
          config_.seed, s * 2 + 1);

      const double week_sessions =
          subs * config_.sessions_per_user_week * config_.session_thinning;
      // Mean per-session volumes chosen so expected totals match the rates.
      const double dl_per_session = subs * weekly_dl / week_sessions;
      const double ul_per_session = subs * weekly_ul / week_sessions;
      const double mu_correction = -0.5 * config_.volume_sigma * config_.volume_sigma;

      const auto& hourly = is_tgv ? share_tgv[s] : share[s];
      for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
        const double lambda = week_sessions * hourly[h];
        const std::uint64_t n_sessions = commune_rng.poisson(lambda);
        for (std::uint64_t n = 0; n < n_sessions; ++n) {
          const Rat preferred =
              spec.spatial.requires_4g
                  ? Rat::kLte4g
                  : (commune_rng.bernoulli(0.5) && commune.has_4g ? Rat::kLte4g
                                                                  : Rat::kUmts3g);
          // ULI localization error: the probe may geo-reference this
          // session to a neighbouring commune's cell.
          geo::CommuneId uli_commune = commune.id;
          if (!uli_neighbors.empty() &&
              commune_rng.bernoulli(config_.uli_error_probability)) {
            uli_commune = uli_neighbors[commune_rng.uniform_index(
                uli_neighbors.size())];
          }
          const CellId cell =
              cells_.pick_cell(uli_commune, preferred, commune_rng.next_u64());
          const Rat rat = cells_.station(cell).rat;
          Gateway& gw = rat == Rat::kLte4g ? pgw : ggsn;

          const auto t0 = static_cast<Timestamp>(
              h * kSecondsPerHour +
              commune_rng.uniform_index(kSecondsPerHour - 60));
          const SessionId sid =
              gw.create_session(commune_rng.next_u64(), t0, {cell, rat});
          ++report.sessions;

          // Optional mid-session handover (ULI refresh to a sibling cell).
          if (commune_rng.bernoulli(config_.handover_probability)) {
            const CellId new_cell =
                cells_.pick_cell(commune.id, rat, commune_rng.next_u64());
            gw.location_update(sid, t0 + 10, {new_cell, rat});
            ++report.handovers;
          }

          const double jitter =
              commune_rng.lognormal(mu_correction, config_.volume_sigma);
          const auto dl = static_cast<Bytes>(dl_per_session * jitter);
          const auto ul = static_cast<Bytes>(ul_per_session * jitter);
          report.offered_downlink += dl;
          report.offered_uplink += ul;

          std::string fingerprint;
          if (commune_rng.bernoulli(config_.fingerprint_visible_fraction)) {
            const auto& fps = dpi_.fingerprints(s);
            fingerprint = fps[commune_rng.uniform_index(fps.size())];
          } else {
            // Opaque traffic (pinned certs, exotic protocols): the DPI
            // cannot map it to a service.
            fingerprint = "sni:opaque-" + std::to_string(opaque_counter++);
          }
          gw.transfer(sid, t0 + 30, dl, ul, std::move(fingerprint));
          ++report.transfers;

          gw.delete_session(sid, t0 + 50);
        }
      }
    }
  }

  report.probe = probe.counters();
  if (timer.active()) {
    // DPI classification accounting: recorded from the probe's own
    // counters at the end, so the per-record hot path stays untouched.
    timer.add_items(report.sessions);
    timer.add_bytes(static_cast<std::uint64_t>(report.offered_downlink) +
                    static_cast<std::uint64_t>(report.offered_uplink));
    util::MetricsRegistry& reg = util::MetricsRegistry::global();
    reg.add("net.dpi.gtpu_records", report.probe.gtpu_records);
    reg.add("net.dpi.classified_bytes", report.probe.classified_bytes);
    reg.add("net.dpi.unclassified_bytes", report.probe.unclassified_bytes);
    reg.gauge("net.dpi.classified_fraction",
              report.probe.classified_fraction());
  }
  return report;
}

}  // namespace appscope::net
