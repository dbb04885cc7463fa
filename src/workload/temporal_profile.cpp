#include "workload/temporal_profile.hpp"

#include <cmath>

#include "util/error.hpp"

namespace appscope::workload {

namespace {
double gaussian(double x, double center, double sigma) noexcept {
  const double d = (x - center) / sigma;
  return std::exp(-0.5 * d * d);
}

/// Gaussian on the 24-hour circle: distance wraps so the diurnal baseline is
/// continuous across midnight (a cliff there would fire the z-score
/// detector on an artefact of the parametrization, not on demand).
double circular_gaussian(double hour, double center, double sigma) noexcept {
  const double d = std::remainder(hour - center, 24.0) / sigma;
  return std::exp(-0.5 * d * d);
}

/// Smooth indicator of the weekend hours [0, 48) within the measurement
/// week (which starts on Saturday), with ~2 h sigmoid shoulders: Friday
/// night eases into Saturday and Sunday night into Monday without a step.
double weekend_weight(double week_hour) noexcept {
  const double into_monday = 1.0 / (1.0 + std::exp((week_hour - 48.0) / 1.5));
  const double from_friday = 1.0 / (1.0 + std::exp((167.0 - week_hour) / 1.5));
  const double w = into_monday + from_friday;
  return w > 1.0 ? 1.0 : w;
}
}  // namespace

TemporalProfile::TemporalProfile(TemporalProfileParams params)
    : params_(std::move(params)) {
  APPSCOPE_REQUIRE(params_.night_floor > 0.0 && params_.night_floor < 1.0,
                   "TemporalProfile: night_floor must be in (0,1)");
  APPSCOPE_REQUIRE(params_.day_sigma > 0.0 && params_.evening_sigma > 0.0,
                   "TemporalProfile: bump widths must be positive");
  APPSCOPE_REQUIRE(params_.weekend_scale > 0.0,
                   "TemporalProfile: weekend_scale must be positive");
  for (const auto& b : params_.boosts) {
    APPSCOPE_REQUIRE(b.amplitude >= 0.0, "TemporalProfile: negative boost");
    APPSCOPE_REQUIRE(b.width_hours > 0.0, "TemporalProfile: boost width <= 0");
  }
}

double TemporalProfile::base_level(double weekend_blend,
                                   double hour_of_day) const {
  // Smooth diurnal curve: night floor + daytime bump (+ evening bump), all
  // periodic over the 24-hour circle so the weekly series stays smooth at
  // midnight; the weekend scale blends in with sigmoid shoulders.
  double level = params_.night_floor;
  level += (1.0 - params_.night_floor) *
           circular_gaussian(hour_of_day, params_.day_center, params_.day_sigma);
  level += params_.evening_weight *
           circular_gaussian(hour_of_day, 21.0, params_.evening_sigma);
  level *= 1.0 + (params_.weekend_scale - 1.0) * weekend_blend;
  return level;
}

double TemporalProfile::boost_multiplier(bool weekend, double hour_of_day) const {
  double mult = 1.0;
  for (const auto& b : params_.boosts) {
    if (ts::topical_is_weekend(b.time) != weekend) continue;
    // Centre the surge on the middle of the anchor hour (profiles are
    // sampled mid-hour), so the anchor hour itself carries the apex.
    const double anchor =
        static_cast<double>(ts::topical_anchor_hour(b.time)) + 0.5;
    mult += b.amplitude * gaussian(hour_of_day, anchor, b.width_hours);
  }
  return mult;
}

double TemporalProfile::evaluate(std::size_t week_hour_index) const {
  APPSCOPE_REQUIRE(week_hour_index < ts::kHoursPerWeek,
                   "TemporalProfile::evaluate: hour out of range");
  const ts::WeekHour wh = ts::week_hour(week_hour_index);
  // Sample mid-hour so boost Gaussians centred on integer anchors land
  // symmetric energy in the anchor hour.
  const double hod = static_cast<double>(wh.hour_of_day()) + 0.5;
  const double blend =
      weekend_weight(static_cast<double>(week_hour_index) + 0.5);
  return base_level(blend, hod) * boost_multiplier(wh.is_weekend(), hod);
}

double tgv_modulation(std::size_t week_hour_index) {
  APPSCOPE_REQUIRE(week_hour_index < ts::kHoursPerWeek,
                   "tgv_modulation: hour out of range");
  const ts::WeekHour wh = ts::week_hour(week_hour_index);
  const double hod = static_cast<double>(wh.hour_of_day()) + 0.5;
  // Train service window ~6h-22h, with broad departure waves around the
  // morning and evening commutes; overnight the trains (and their
  // passengers' traffic) largely disappear. The waves are kept wide and
  // modest so the TGV subpopulation reshapes its own time series (Fig. 11
  // bottom) without injecting sharp commute peaks into every service's
  // national aggregate.
  const double window =
      1.0 / (1.0 + std::exp(-(hod - 6.0))) * 1.0 / (1.0 + std::exp(hod - 22.0));
  const double waves = 1.0 + 0.35 * gaussian(hod, 8.5, 2.2) +
                       0.3 * gaussian(hod, 18.5, 2.4);
  return 0.05 + window * waves;
}

}  // namespace appscope::workload
