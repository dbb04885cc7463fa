// appscope/workload/population.hpp
//
// Subscriber base model: the operator serves a fraction of each commune's
// residents (Orange's French market share put ~30M subscribers over ~66M
// inhabitants). Per-commune counts are deterministic in the seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geo/territory.hpp"

namespace appscope::workload {

struct PopulationConfig {
  /// Fraction of residents subscribed to the studied operator.
  double market_share = 0.45;
  /// Small relative jitter on the share per commune (competition varies).
  double share_jitter = 0.05;
  std::uint64_t seed = 99;
};

/// Per-commune subscriber counts, aligned with territory.communes().
class SubscriberBase {
 public:
  SubscriberBase(const geo::Territory& territory, const PopulationConfig& config);
  /// Restores a base from per-commune counts (snapshot load path).
  explicit SubscriberBase(std::vector<std::uint32_t> counts);

  std::size_t commune_count() const noexcept { return subscribers_.size(); }
  std::uint32_t subscribers(geo::CommuneId commune) const;
  const std::vector<std::uint32_t>& counts() const noexcept { return subscribers_; }

  std::uint64_t total() const noexcept;
  /// Subscribers living in a given urbanization class.
  std::uint64_t total_in(const geo::Territory& territory,
                         geo::Urbanization u) const;
  /// Subscribers per urbanization class, indexed by geo::Urbanization: the
  /// per-user divisors of the urbanization series.
  std::array<std::uint64_t, geo::kUrbanizationCount> class_totals(
      const geo::Territory& territory) const;

 private:
  std::vector<std::uint32_t> subscribers_;
};

}  // namespace appscope::workload
