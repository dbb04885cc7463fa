// appscope/workload/catalog.hpp
//
// The 20 paper services (Fig. 3) with their full behavioural model, plus the
// long tail of low-volume services completing the >500-service ranking of
// Fig. 2.
//
// Calibration sources (all from the paper):
//  - Fig. 3 rankings: video ≈46% of downlink; social/messaging top-3 uplink;
//  - Sec. 3 footnote: uplink is less than 1/20 of the total network load;
//  - Fig. 6: per-service topical peak times — every service gets a UNIQUE
//    set of peak boosts;
//  - Fig. 7: peak intensity envelopes per topical time (midday up to ~160%,
//    morning commute up to ~120%, evening up to ~80%, ...);
//  - Figs. 9-11: urbanization ratios (semi ≈ 1, rural ≈ 0.5, TGV ≥ 2),
//    Netflix 4G-gated and city-skewed, iCloud uniform, Adult depressed on
//    TGV.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload/service.hpp"
#include "workload/spatial_profile.hpp"
#include "workload/temporal_profile.hpp"

namespace appscope::workload {

/// Complete behavioural description of one mobile service.
struct ServiceSpec {
  std::string name;
  Category category;
  /// Mean weekly bytes per urban subscriber, indexed by Direction.
  std::array<double, kDirectionCount> urban_weekly_bytes_per_user{};
  TemporalProfile temporal;
  SpatialProfile spatial;

  double urban_rate(Direction d) const noexcept {
    return urban_weekly_bytes_per_user[static_cast<std::size_t>(d)];
  }
};

/// Immutable collection of services under study.
class ServiceCatalog {
 public:
  explicit ServiceCatalog(std::vector<ServiceSpec> services);

  /// The paper's 20 services with calibrated parameters.
  static ServiceCatalog paper_services();

  /// The paper catalog extended with generated low-volume services up to
  /// `total_services` (>500 detected services in the paper). Tail services
  /// follow the Fig. 2 tail law in volume, carry simple randomized diurnal
  /// profiles and default spatial behaviour, and are fully usable by the
  /// generators — this makes the Fig. 2 ranking measurable end-to-end
  /// rather than synthesized at analysis time.
  static ServiceCatalog with_long_tail(std::size_t total_services = 500,
                                       std::uint64_t seed = 77);

  std::size_t size() const noexcept { return services_.size(); }
  const ServiceSpec& operator[](ServiceIndex i) const;
  const std::vector<ServiceSpec>& services() const noexcept { return services_; }

  /// Index of a service by exact name, if present.
  std::optional<ServiceIndex> find(std::string_view name) const noexcept;

  std::vector<std::string> names() const;

 private:
  std::vector<ServiceSpec> services_;
};

/// Regional popularity skew: a copy of `catalog` with every service's
/// per-user rates (both directions) scaled by exp(tilt * z), z in
/// [-0.5, 0.5] the service's normalized downlink-rank position (head
/// services at +0.5, ties broken by catalog index so the map is a pure
/// function of the catalog). Positive tilt concentrates traffic on the
/// popular head, negative tilt fattens the tail. tilt == 0 returns the
/// catalog unchanged.
ServiceCatalog with_popularity_tilt(const ServiceCatalog& catalog, double tilt);

/// Synthesizes the full >500-service ranking of Fig. 2: the catalog's
/// services provide the head; tail ranks continue the head's Zipf law with
/// the given exponent, and ranks past the midpoint decay with an additional
/// stretched-exponential cutoff (the paper's "bottom half" break).
/// Returns unnormalized weekly volumes, descending.
std::vector<double> full_service_ranking(const ServiceCatalog& catalog,
                                         Direction d,
                                         std::size_t total_services = 500,
                                         double zipf_exponent = 0.0);

/// Default Fig. 2 exponents (downlink 1.69, uplink 1.55).
double default_zipf_exponent(Direction d) noexcept;

}  // namespace appscope::workload
