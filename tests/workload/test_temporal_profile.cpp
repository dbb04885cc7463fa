#include "workload/temporal_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ts/peaks.hpp"
#include "util/error.hpp"
#include "workload/catalog.hpp"

namespace appscope::workload {
namespace {

/// The profile's 168 hourly values.
std::vector<double> weekly(const TemporalProfile& profile) {
  std::vector<double> v(ts::kHoursPerWeek);
  for (std::size_t h = 0; h < v.size(); ++h) v[h] = profile.evaluate(h);
  return v;
}

TemporalProfileParams basic_params() {
  TemporalProfileParams p;
  p.night_floor = 0.1;
  p.day_center = 15.0;
  p.day_sigma = 5.0;
  // No evening bump: the catalog expresses all sharp structure via boosts
  // so the baseline stays below the peak detector's radar.
  p.evening_weight = 0.0;
  p.weekend_scale = 0.8;
  return p;
}

TEST(TemporalProfile, EveningWeightRaisesEvening) {
  TemporalProfileParams p = basic_params();
  const TemporalProfile plain(p);
  p.evening_weight = 0.4;
  const TemporalProfile evening(p);
  const std::size_t monday21 = 2 * 24 + 21;
  EXPECT_GT(evening.evaluate(monday21), 1.2 * plain.evaluate(monday21));
  // Midday barely affected (the bump is narrow).
  const std::size_t monday13 = 2 * 24 + 13;
  EXPECT_NEAR(evening.evaluate(monday13), plain.evaluate(monday13),
              0.05 * plain.evaluate(monday13));
}

TEST(TemporalProfile, PositiveEverywhere) {
  const TemporalProfile profile(basic_params());
  for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
    EXPECT_GT(profile.evaluate(h), 0.0) << h;
  }
  EXPECT_THROW(profile.evaluate(ts::kHoursPerWeek), util::PreconditionError);
}

TEST(TemporalProfile, DiurnalShape) {
  const TemporalProfile profile(basic_params());
  // 4am Monday is near the night floor; 3pm is near the day peak.
  const double night = profile.evaluate(2 * 24 + 4);
  const double day = profile.evaluate(2 * 24 + 15);
  EXPECT_GT(day, 3.0 * night);
}

TEST(TemporalProfile, WeekendScaleApplies) {
  const TemporalProfile profile(basic_params());
  const double saturday = profile.evaluate(15);           // Sat 15h
  const double monday = profile.evaluate(2 * 24 + 15);    // Mon 15h
  // The weekend blend has sigmoid shoulders, so mid-day values sit within a
  // hair of the nominal scale rather than exactly on it.
  EXPECT_NEAR(saturday / monday, 0.8, 1e-3);
}

TEST(TemporalProfile, BoostRaisesAnchorHour) {
  TemporalProfileParams p = basic_params();
  p.boosts.push_back({ts::TopicalTime::kMidday, 0.8, 0.8});
  const TemporalProfile boosted(p);
  const TemporalProfile plain(basic_params());
  const std::size_t monday13 = 2 * 24 + 13;
  EXPECT_GT(boosted.evaluate(monday13), 1.5 * plain.evaluate(monday13));
  // Weekend 13h unaffected by a working-day boost.
  EXPECT_NEAR(boosted.evaluate(13), plain.evaluate(13), 0.02 * plain.evaluate(13));
}

TEST(TemporalProfile, WeekendBoostOnlyOnWeekend) {
  TemporalProfileParams p = basic_params();
  p.boosts.push_back({ts::TopicalTime::kWeekendEvening, 0.6, 0.8});
  const TemporalProfile profile(p);
  const TemporalProfile plain(basic_params());
  EXPECT_GT(profile.evaluate(21), 1.3 * plain.evaluate(21));  // Sat 21h
  const std::size_t tuesday21 = 3 * 24 + 21;
  EXPECT_NEAR(profile.evaluate(tuesday21), plain.evaluate(tuesday21),
              0.02 * plain.evaluate(tuesday21));
}

TEST(TemporalProfile, ParameterValidation) {
  TemporalProfileParams p = basic_params();
  p.night_floor = 0.0;
  EXPECT_THROW(TemporalProfile{p}, util::PreconditionError);
  p = basic_params();
  p.day_sigma = 0.0;
  EXPECT_THROW(TemporalProfile{p}, util::PreconditionError);
  p = basic_params();
  p.weekend_scale = -1.0;
  EXPECT_THROW(TemporalProfile{p}, util::PreconditionError);
  p = basic_params();
  p.boosts.push_back({ts::TopicalTime::kMidday, -0.5, 0.8});
  EXPECT_THROW(TemporalProfile{p}, util::PreconditionError);
}

TEST(TemporalProfile, SmoothBaselineDoesNotTriggerDetector) {
  // Without boosts, the paper-parameter detector must stay silent: the
  // baseline is smooth by design.
  const TemporalProfile profile(basic_params());
  const auto det = ts::detect_peaks(weekly(profile), {});
  EXPECT_TRUE(det.rising_fronts.empty());
}

TEST(TemporalProfile, CatalogBoostsAreDetectedAtTheRightTopicalTimes) {
  // End-to-end property over the whole catalog: detected topical times on
  // the pure profile curve must be a subset of the declared boost times
  // (detection may miss weak boosts; it must not invent spurious ones).
  const ServiceCatalog catalog = ServiceCatalog::paper_services();
  for (const auto& spec : catalog.services()) {
    const auto det = ts::detect_peaks(weekly(spec.temporal), {});
    const auto detected = ts::peak_topical_times(det);
    std::vector<ts::TopicalTime> declared;
    for (const PeakBoost& b : spec.temporal.params().boosts) {
      declared.push_back(b.time);
    }
    for (const auto t : detected) {
      EXPECT_NE(std::find(declared.begin(), declared.end(), t), declared.end())
          << spec.name << " spuriously peaks at " << ts::topical_time_name(t);
    }
    EXPECT_EQ(det.rising_fronts.size() > 0, true)
        << spec.name << " has no detectable peaks at all";
  }
}

TEST(TgvModulation, SuppressesNightBoostsCommutes) {
  // Night hours are nearly dead on trains.
  const double night = tgv_modulation(2 * 24 + 3);   // Mon 3am
  const double morning = tgv_modulation(2 * 24 + 8); // Mon 8am wave
  const double midday = tgv_modulation(2 * 24 + 13);
  EXPECT_LT(night, 0.2);
  EXPECT_GT(morning, midday);
  EXPECT_THROW(tgv_modulation(200), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::workload
