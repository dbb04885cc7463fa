// appscope/workload/temporal_profile.hpp
//
// Weekly demand-shape model of a mobile service. The shape is a smooth
// diurnal baseline (night trough, broad daytime activity, optional evening
// bump) modulated by sharp "peak boosts" anchored at the paper's seven
// topical times (Fig. 6). The smooth baseline stays below the smoothed
// z-score detection threshold; the boosts are what the detector fires on —
// so each service's boost set is exactly its expected Fig. 6 signature.
#pragma once

#include <vector>

#include "ts/calendar.hpp"

namespace appscope::workload {

/// A localized demand surge at a topical time.
struct PeakBoost {
  ts::TopicalTime time = ts::TopicalTime::kMidday;
  /// Relative surge height: 0.5 ≈ +50% over the local baseline, which is
  /// (approximately) what the Fig. 7 peak-intensity metric reads back.
  double amplitude = 0.5;
  /// Gaussian width of the surge in hours (sharp by construction).
  double width_hours = 0.8;
};

struct TemporalProfileParams {
  /// Relative activity at the overnight trough (fraction of daytime level).
  double night_floor = 0.12;
  /// Center and width of the broad daytime bump (hour of day, hours).
  double day_center = 15.0;
  double day_sigma = 5.5;
  /// Weight of the extra evening bump at ~21h (0 disables).
  double evening_weight = 0.25;
  double evening_sigma = 2.2;
  /// Weekend volume relative to a working day (1 = same).
  double weekend_scale = 0.9;
  /// Sharp surges at topical times.
  std::vector<PeakBoost> boosts;
};

/// Immutable, evaluable weekly profile.
class TemporalProfile {
 public:
  TemporalProfile() = default;
  explicit TemporalProfile(TemporalProfileParams params);

  const TemporalProfileParams& params() const noexcept { return params_; }

  /// Relative demand intensity at a week hour (continuous, > 0).
  /// The absolute scale is arbitrary; generators normalize over the week.
  double evaluate(std::size_t week_hour_index) const;

 private:
  double base_level(double weekend_blend, double hour_of_day) const;
  double boost_multiplier(bool weekend, double hour_of_day) const;

  TemporalProfileParams params_;
};

/// Overlay applied to TGV communes: demand follows train operating hours
/// (approx. 6h-22h service window) and is suppressed overnight, producing
/// the distinct temporal dynamics Fig. 11 (bottom) shows for TGV users.
double tgv_modulation(std::size_t week_hour_index);

}  // namespace appscope::workload
