// The aggregation sink's folds. Suites are named after the table each test
// covers.
#include "synth/sinks.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ts/calendar.hpp"
#include "util/error.hpp"

namespace appscope::synth {
namespace {

constexpr workload::Direction kDown = workload::Direction::kDownlink;
constexpr workload::Direction kUp = workload::Direction::kUplink;

/// Feeds `sink` one week of service `s` in commune `c` that is zero in every
/// hour but `h`.
void feed_hour(AggregateSink& sink, workload::ServiceIndex s, geo::CommuneId c,
               std::size_t h, geo::Urbanization u, double dl, double ul) {
  std::vector<double> down(ts::kHoursPerWeek, 0.0);
  std::vector<double> up(ts::kHoursPerWeek, 0.0);
  down[h] = dl;
  up[h] = ul;
  sink.consume_row({s, c, u, down, up});
}

TEST(NationalSeriesSink, AccumulatesPerHour) {
  AggregateSink sink(2, 3);
  feed_hour(sink, 0, 1, 10, geo::Urbanization::kUrban, 5.0, 1.0);
  feed_hour(sink, 0, 2, 10, geo::Urbanization::kRural, 3.0, 0.5);
  feed_hour(sink, 1, 1, 20, geo::Urbanization::kUrban, 7.0, 2.0);

  const AggregateTables<double>& t = sink.tables();
  EXPECT_DOUBLE_EQ(t.national_row(0, kDown)[10], 8.0);
  EXPECT_DOUBLE_EQ(t.national_row(0, kUp)[10], 1.5);
  EXPECT_DOUBLE_EQ(t.national_row(1, kDown)[20], 7.0);
  EXPECT_DOUBLE_EQ(t.national_row(1, kDown)[10], 0.0);
  EXPECT_THROW(t.national_row(2, kDown), util::PreconditionError);
}

TEST(NationalSeriesSink, TimeSeriesConversion) {
  AggregateSink sink(1, 1);
  feed_hour(sink, 0, 0, 5, geo::Urbanization::kUrban, 2.0, 0.0);
  const auto row = sink.tables().national_row(0, kDown);
  const std::vector<double> series(row.begin(), row.end());
  EXPECT_EQ(series.size(), ts::kHoursPerWeek);
  EXPECT_DOUBLE_EQ(series[5], 2.0);
  EXPECT_DOUBLE_EQ(series[4], 0.0);
}

TEST(CommuneTotalsSink, AccumulatesWeeklyTotals) {
  AggregateSink sink(2, 3);
  feed_hour(sink, 0, 1, 10, geo::Urbanization::kUrban, 5.0, 1.0);
  feed_hour(sink, 0, 1, 99, geo::Urbanization::kUrban, 2.0, 0.5);
  const AggregateTables<double>& t = sink.tables();
  EXPECT_DOUBLE_EQ(t.commune_row(0, kDown)[1], 7.0);
  EXPECT_DOUBLE_EQ(t.commune_row(0, kUp)[1], 1.5);
  EXPECT_DOUBLE_EQ(t.commune_row(0, kDown)[0], 0.0);

  const auto row = t.commune_row(0, kDown);
  EXPECT_EQ(std::vector<double>(row.begin(), row.end()),
            (std::vector<double>{0.0, 7.0, 0.0}));
  EXPECT_THROW(t.commune_row(2, kDown), util::PreconditionError);
}

TEST(UrbanizationSeriesSink, SplitsByClass) {
  AggregateSink sink(1, 2);
  feed_hour(sink, 0, 0, 7, geo::Urbanization::kUrban, 4.0, 0.4);
  feed_hour(sink, 0, 1, 7, geo::Urbanization::kTgv, 6.0, 0.6);
  const AggregateTables<double>& t = sink.tables();
  EXPECT_DOUBLE_EQ(t.urbanization_row(0, geo::Urbanization::kUrban, kDown)[7],
                   4.0);
  EXPECT_DOUBLE_EQ(t.urbanization_row(0, geo::Urbanization::kTgv, kDown)[7],
                   6.0);
  EXPECT_DOUBLE_EQ(t.urbanization_row(0, geo::Urbanization::kRural, kDown)[7],
                   0.0);
}

TEST(TotalsSink, GrandTotals) {
  AggregateSink sink(2, 6);
  feed_hour(sink, 0, 0, 0, geo::Urbanization::kUrban, 10.0, 1.0);
  feed_hour(sink, 1, 5, 100, geo::Urbanization::kRural, 20.0, 2.0);
  const AggregateTables<double>& t = sink.tables();
  EXPECT_DOUBLE_EQ(t.downlink_total, 30.0);
  EXPECT_DOUBLE_EQ(t.uplink_total, 3.0);
  EXPECT_EQ(t.cells, 2u * ts::kHoursPerWeek);
}

TEST(Sinks, ConstructorsValidate) {
  EXPECT_THROW(AggregateSink(0, 5), util::PreconditionError);
  EXPECT_THROW(AggregateSink(5, 0), util::PreconditionError);
  EXPECT_THROW(AggregateTables<std::uint64_t>(0, 1), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::synth
