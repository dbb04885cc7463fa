#include "workload/population.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::workload {

SubscriberBase::SubscriberBase(const geo::Territory& territory,
                               const PopulationConfig& config) {
  APPSCOPE_REQUIRE(config.market_share > 0.0 && config.market_share <= 1.0,
                   "SubscriberBase: market_share must be in (0,1]");
  APPSCOPE_REQUIRE(config.share_jitter >= 0.0 && config.share_jitter < 1.0,
                   "SubscriberBase: share_jitter must be in [0,1)");
  util::Rng rng(config.seed);
  subscribers_.reserve(territory.size());
  for (const auto& commune : territory.communes()) {
    const double jitter = 1.0 + config.share_jitter * rng.normal();
    const double share = std::clamp(config.market_share * jitter, 0.01, 1.0);
    const double expected = share * static_cast<double>(commune.population);
    // At least one subscriber per inhabited commune keeps per-user ratios
    // well-defined everywhere (matching the paper's "several thousands of
    // subscribers per commune" aggregation guarantee at real scale).
    subscribers_.push_back(static_cast<std::uint32_t>(
        std::max(1.0, std::round(expected))));
  }
}

SubscriberBase::SubscriberBase(std::vector<std::uint32_t> counts)
    : subscribers_(std::move(counts)) {
  APPSCOPE_REQUIRE(!subscribers_.empty(), "SubscriberBase: empty counts");
}

std::uint32_t SubscriberBase::subscribers(geo::CommuneId commune) const {
  APPSCOPE_REQUIRE(commune < subscribers_.size(),
                   "SubscriberBase: commune out of range");
  return subscribers_[commune];
}

std::uint64_t SubscriberBase::total() const noexcept {
  std::uint64_t total = 0;
  for (const auto s : subscribers_) total += s;
  return total;
}

std::uint64_t SubscriberBase::total_in(const geo::Territory& territory,
                                       geo::Urbanization u) const {
  return class_totals(territory)[static_cast<std::size_t>(u)];
}

std::array<std::uint64_t, geo::kUrbanizationCount> SubscriberBase::class_totals(
    const geo::Territory& territory) const {
  APPSCOPE_REQUIRE(territory.size() == subscribers_.size(),
                   "SubscriberBase: territory mismatch");
  std::array<std::uint64_t, geo::kUrbanizationCount> totals{};
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    totals[static_cast<std::size_t>(territory.communes()[i].urbanization)] +=
        subscribers_[i];
  }
  return totals;
}

}  // namespace appscope::workload
