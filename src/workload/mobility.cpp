#include "workload/mobility.hpp"

#include <cmath>

#include "ts/calendar.hpp"
#include "util/error.hpp"

namespace appscope::workload {

namespace {
double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

PresenceModel::PresenceModel(const geo::Territory& territory,
                             const SubscriberBase& subscribers,
                             const MobilityConfig& config)
    : territory_(territory), subscribers_(subscribers), config_(config) {
  APPSCOPE_REQUIRE(territory_.size() == subscribers_.commune_count(),
                   "PresenceModel: territory/subscriber mismatch");
  APPSCOPE_REQUIRE(config_.commuter_fraction >= 0.0 &&
                       config_.commuter_fraction < 1.0,
                   "PresenceModel: commuter_fraction must be in [0,1)");
  APPSCOPE_REQUIRE(config_.work_start < config_.work_end,
                   "PresenceModel: work window is empty");
  APPSCOPE_REQUIRE(config_.shoulder_hours > 0.0,
                   "PresenceModel: shoulder must be positive");

  out_fraction_.assign(territory_.size(), 0.0);
  inflow_.assign(territory_.size(), 0.0);

  // The metro core is the first commune generated for each metro (it holds
  // the core population share); identify it as the metro's most populous
  // commune, which is robust to generator changes.
  std::vector<std::int64_t> core_of_metro(territory_.metros().size(), -1);
  for (const auto& commune : territory_.communes()) {
    if (commune.metro == geo::Commune::kNoMetro) continue;
    auto& core = core_of_metro[commune.metro];
    if (core < 0 ||
        commune.population > territory_.commune(static_cast<geo::CommuneId>(core))
                                 .population) {
      core = commune.id;
    }
  }

  for (const auto& commune : territory_.communes()) {
    if (commune.metro == geo::Commune::kNoMetro) continue;
    const auto core = core_of_metro[commune.metro];
    if (core < 0 || static_cast<geo::CommuneId>(core) == commune.id) continue;
    out_fraction_[commune.id] = config_.commuter_fraction;
    inflow_[static_cast<std::size_t>(core)] +=
        config_.commuter_fraction *
        static_cast<double>(subscribers_.subscribers(commune.id));
  }
}

double PresenceModel::work_window(std::size_t week_hour) const {
  APPSCOPE_REQUIRE(week_hour < ts::kHoursPerWeek,
                   "PresenceModel: hour out of range");
  const ts::WeekHour wh = ts::week_hour(week_hour);
  if (wh.is_weekend()) return 0.0;
  const double hod = static_cast<double>(wh.hour_of_day()) + 0.5;
  return sigmoid((hod - config_.work_start) / config_.shoulder_hours) *
         sigmoid((config_.work_end - hod) / config_.shoulder_hours);
}

double PresenceModel::presence(geo::CommuneId commune,
                               std::size_t week_hour) const {
  APPSCOPE_REQUIRE(commune < territory_.size(),
                   "PresenceModel: commune out of range");
  const double w = work_window(week_hour);
  if (w == 0.0) return 1.0;
  const double residents =
      static_cast<double>(subscribers_.subscribers(commune));
  const double present =
      residents * (1.0 - out_fraction_[commune] * w) + inflow_[commune] * w;
  return present / residents;
}

}  // namespace appscope::workload
