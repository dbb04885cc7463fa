#include "ts/calendar.hpp"

#include <cmath>

#include "util/error.hpp"

namespace appscope::ts {

std::string_view day_name(Day d) noexcept {
  switch (d) {
    case Day::kSaturday: return "Sat";
    case Day::kSunday: return "Sun";
    case Day::kMonday: return "Mon";
    case Day::kTuesday: return "Tue";
    case Day::kWednesday: return "Wed";
    case Day::kThursday: return "Thu";
    case Day::kFriday: return "Fri";
  }
  return "???";
}

WeekHour week_hour(std::size_t index) {
  APPSCOPE_REQUIRE(index < kHoursPerWeek, "week_hour: index out of range");
  return WeekHour{static_cast<std::uint16_t>(index)};
}

std::array<TopicalTime, kTopicalTimeCount> all_topical_times() noexcept {
  return {TopicalTime::kWeekendMidday,   TopicalTime::kWeekendEvening,
          TopicalTime::kMorningCommute,  TopicalTime::kMorningBreak,
          TopicalTime::kMidday,          TopicalTime::kAfternoonCommute,
          TopicalTime::kEvening};
}

std::string_view topical_time_name(TopicalTime t) noexcept {
  switch (t) {
    case TopicalTime::kWeekendMidday: return "Weekend midday";
    case TopicalTime::kWeekendEvening: return "Weekend evening";
    case TopicalTime::kMorningCommute: return "Morning commuting";
    case TopicalTime::kMorningBreak: return "Morning break";
    case TopicalTime::kMidday: return "Midday";
    case TopicalTime::kAfternoonCommute: return "Afternoon commuting";
    case TopicalTime::kEvening: return "Evening";
  }
  return "???";
}

std::size_t topical_anchor_hour(TopicalTime t) noexcept {
  switch (t) {
    case TopicalTime::kWeekendMidday: return 13;
    case TopicalTime::kWeekendEvening: return 21;
    case TopicalTime::kMorningCommute: return 8;
    case TopicalTime::kMorningBreak: return 10;
    case TopicalTime::kMidday: return 13;
    case TopicalTime::kAfternoonCommute: return 18;
    case TopicalTime::kEvening: return 21;
  }
  return 0;
}

bool topical_is_weekend(TopicalTime t) noexcept {
  return t == TopicalTime::kWeekendMidday || t == TopicalTime::kWeekendEvening;
}

std::optional<TopicalTime> classify_topical(WeekHour wh,
                                            std::size_t tolerance_hours) {
  const bool weekend = wh.is_weekend();
  const auto hod = static_cast<long>(wh.hour_of_day());

  std::optional<TopicalTime> best;
  long best_distance = 0;
  for (const TopicalTime t : all_topical_times()) {
    if (topical_is_weekend(t) != weekend) continue;
    const long distance = std::abs(hod - static_cast<long>(topical_anchor_hour(t)));
    if (distance > static_cast<long>(tolerance_hours)) continue;
    if (!best || distance < best_distance) {
      best = t;
      best_distance = distance;
    }
  }
  return best;
}

}  // namespace appscope::ts
