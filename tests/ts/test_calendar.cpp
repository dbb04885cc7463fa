#include "ts/calendar.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace appscope::ts {
namespace {

/// The week hour `hour` of `day`.
WeekHour at(Day day, std::size_t hour) {
  return week_hour(static_cast<std::size_t>(day) * kHoursPerDay + hour);
}

TEST(WeekHour, DayAndHourDecomposition) {
  const WeekHour wh = week_hour(0);
  EXPECT_EQ(wh.day(), Day::kSaturday);
  EXPECT_EQ(wh.hour_of_day(), 0u);
  EXPECT_TRUE(wh.is_weekend());

  const WeekHour monday9 = week_hour(2 * 24 + 9);
  EXPECT_EQ(monday9.day(), Day::kMonday);
  EXPECT_EQ(monday9.hour_of_day(), 9u);
  EXPECT_FALSE(monday9.is_weekend());

  const WeekHour last = week_hour(167);
  EXPECT_EQ(last.day(), Day::kFriday);
  EXPECT_EQ(last.hour_of_day(), 23u);
}

TEST(WeekHour, RangeValidation) {
  EXPECT_THROW(week_hour(168), util::PreconditionError);
}

TEST(WeekHour, WeekendIsSaturdayAndSunday) {
  for (std::size_t h = 0; h < kHoursPerWeek; ++h) {
    const WeekHour wh = week_hour(h);
    const bool expect_weekend =
        wh.day() == Day::kSaturday || wh.day() == Day::kSunday;
    EXPECT_EQ(wh.is_weekend(), expect_weekend) << "hour " << h;
  }
}

TEST(DayName, AllDaysNamed) {
  EXPECT_EQ(day_name(Day::kSaturday), "Sat");
  EXPECT_EQ(day_name(Day::kFriday), "Fri");
}

TEST(TopicalTimes, SevenOfThem) {
  const auto all = all_topical_times();
  EXPECT_EQ(all.size(), kTopicalTimeCount);
  // Distinct names.
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(topical_time_name(all[i]), topical_time_name(all[j]));
    }
  }
}

TEST(TopicalTimes, AnchorsMatchPaper) {
  EXPECT_EQ(topical_anchor_hour(TopicalTime::kWeekendMidday), 13u);
  EXPECT_EQ(topical_anchor_hour(TopicalTime::kWeekendEvening), 21u);
  EXPECT_EQ(topical_anchor_hour(TopicalTime::kMorningCommute), 8u);
  EXPECT_EQ(topical_anchor_hour(TopicalTime::kMorningBreak), 10u);
  EXPECT_EQ(topical_anchor_hour(TopicalTime::kMidday), 13u);
  EXPECT_EQ(topical_anchor_hour(TopicalTime::kAfternoonCommute), 18u);
  EXPECT_EQ(topical_anchor_hour(TopicalTime::kEvening), 21u);
}

TEST(ClassifyTopical, ExactAnchors) {
  EXPECT_EQ(classify_topical(at(Day::kMonday, 13)), TopicalTime::kMidday);
  EXPECT_EQ(classify_topical(at(Day::kSaturday, 13)),
            TopicalTime::kWeekendMidday);
  EXPECT_EQ(classify_topical(at(Day::kWednesday, 8)),
            TopicalTime::kMorningCommute);
  EXPECT_EQ(classify_topical(at(Day::kSunday, 21)),
            TopicalTime::kWeekendEvening);
}

TEST(ClassifyTopical, ToleranceWindow) {
  EXPECT_EQ(classify_topical(at(Day::kMonday, 12)), TopicalTime::kMidday);
  EXPECT_EQ(classify_topical(at(Day::kMonday, 14)), TopicalTime::kMidday);
  EXPECT_FALSE(classify_topical(at(Day::kMonday, 16)).has_value());
  EXPECT_FALSE(classify_topical(at(Day::kMonday, 3)).has_value());
}

TEST(ClassifyTopical, NearestAnchorWinsBetweenCommuteAndBreak) {
  // 9am is 1h from both the 8am commute and the 10am break; the classifier
  // must pick deterministically by distance then ring order — distance ties
  // go to the first ring encountered (commute).
  const auto t = classify_topical(at(Day::kTuesday, 9));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, TopicalTime::kMorningCommute);
  // With zero tolerance, 9am matches nothing.
  EXPECT_FALSE(classify_topical(at(Day::kTuesday, 9), 0).has_value());
}

TEST(ClassifyTopical, WeekendVsWeekdaySeparation) {
  // 8am Saturday must not match the (working-day) morning commute.
  EXPECT_FALSE(classify_topical(at(Day::kSaturday, 8)).has_value());
  // 13h Sunday is weekend midday, not working midday.
  EXPECT_EQ(classify_topical(at(Day::kSunday, 13)),
            TopicalTime::kWeekendMidday);
}

}  // namespace
}  // namespace appscope::ts
