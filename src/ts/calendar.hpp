// appscope/ts/calendar.hpp
//
// Weekly calendar used by all temporal analyses. The paper's measurement
// week starts on Saturday, September 24, 2016; series are hourly, 168
// samples, hour index 0 = Saturday 00:00.
//
// The paper finds that activity peaks only appear at seven "topical times"
// (Sec. 4): weekend midday/evening, and working-day morning commute, morning
// break, midday, afternoon commute, and evening. This header encodes those
// anchors and the peak-to-topical-time matching rule.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace appscope::ts {

inline constexpr std::size_t kHoursPerDay = 24;
inline constexpr std::size_t kDaysPerWeek = 7;
inline constexpr std::size_t kHoursPerWeek = kHoursPerDay * kDaysPerWeek;  // 168

/// Day of week with the dataset's convention (index 0 = Saturday).
enum class Day : std::uint8_t {
  kSaturday = 0,
  kSunday = 1,
  kMonday = 2,
  kTuesday = 3,
  kWednesday = 4,
  kThursday = 5,
  kFriday = 6,
};

/// Hour within the measurement week, in [0, 168).
struct WeekHour {
  std::uint16_t index = 0;

  Day day() const noexcept { return static_cast<Day>(index / kHoursPerDay); }
  std::size_t hour_of_day() const noexcept { return index % kHoursPerDay; }
  bool is_weekend() const noexcept { return index < 2 * kHoursPerDay; }

  friend bool operator==(WeekHour a, WeekHour b) noexcept = default;
};

std::string_view day_name(Day d) noexcept;

/// Builds a WeekHour; throws PreconditionError if out of range.
WeekHour week_hour(std::size_t index);

/// The paper's seven topical times (Fig. 6 rings).
enum class TopicalTime : std::uint8_t {
  kWeekendMidday = 0,      // ~1pm, Sat/Sun
  kWeekendEvening = 1,     // ~9pm, Sat/Sun
  kMorningCommute = 2,     // ~8am, Mon-Fri
  kMorningBreak = 3,       // ~10am, Mon-Fri
  kMidday = 4,             // ~1pm, Mon-Fri
  kAfternoonCommute = 5,   // ~6pm, Mon-Fri
  kEvening = 6,            // ~9pm, Mon-Fri
};

inline constexpr std::size_t kTopicalTimeCount = 7;

/// All topical times in ring order (Fig. 6).
std::array<TopicalTime, kTopicalTimeCount> all_topical_times() noexcept;

std::string_view topical_time_name(TopicalTime t) noexcept;

/// Canonical hour-of-day anchor of a topical time (13, 21, 8, 10, 13, 18, 21).
std::size_t topical_anchor_hour(TopicalTime t) noexcept;

/// True if the topical time belongs to the weekend rings.
bool topical_is_weekend(TopicalTime t) noexcept;

/// Maps a week hour to the topical time it belongs to, if any.
/// A peak at `wh` matches a topical time when the day class agrees
/// (weekend vs working day) and |hour_of_day - anchor| <= tolerance.
/// Anchors are disambiguated by smallest distance (commute 8h vs break 10h).
std::optional<TopicalTime> classify_topical(WeekHour wh,
                                            std::size_t tolerance_hours = 1);

}  // namespace appscope::ts
