// appscope/workload/mobility.hpp
//
// Commuter presence model (extension). The paper attributes part of the
// spatial demand pattern to people *moving*: activity concentrates in
// cities and along transport arteries because subscribers travel there. The
// base generator encodes that statically (urbanization ratios, TGV
// overlay); this model grounds it physically: a share of suburban/rural
// subscribers work in their metro's core commune, so commune-level
// *presence* — and with it traffic — shifts toward the cores during working
// hours and back home in the evening.
//
// The model is an opt-in multiplier on the generator's per-commune volumes
// (ScenarioConfig::enable_mobility); the ablation bench compares Fig. 11
// with and without it.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/territory.hpp"
#include "ts/calendar.hpp"
#include "workload/population.hpp"

namespace appscope::workload {

struct MobilityConfig {
  /// Fraction of subscribers of a metro's satellite communes who commute to
  /// the metro core on working days.
  double commuter_fraction = 0.35;
  /// Work window: presence ramps up around `work_start` and back down
  /// around `work_end` (hours of day, smooth shoulders).
  double work_start = 8.5;
  double work_end = 17.5;
  /// Sigmoid shoulder width in hours.
  double shoulder_hours = 1.0;
};

/// Per-commune, per-hour subscriber-presence multipliers.
class PresenceModel {
 public:
  /// References must outlive the model. Communes without a metro (pure
  /// rural scatter) keep presence 1 at all hours.
  PresenceModel(const geo::Territory& territory, const SubscriberBase& subscribers,
                const MobilityConfig& config = {});

  /// Multiplier on the commune's resident subscriber count at a week hour:
  /// < 1 for commuter homes during the work window, > 1 for metro cores.
  double presence(geo::CommuneId commune, std::size_t week_hour) const;

  /// Work-window weight at a week hour, in [0, 1] (0 on weekends).
  double work_window(std::size_t week_hour) const;

 private:
  const geo::Territory& territory_;
  const SubscriberBase& subscribers_;
  MobilityConfig config_;
  /// Per commune: fraction of residents commuting out.
  std::vector<double> out_fraction_;
  /// Per commune: absolute worker inflow at full window.
  std::vector<double> inflow_;
};

}  // namespace appscope::workload
