// The one aggregate-table type: its layout is the snapshot section payload
// order (checked through the query read path), and merge, reset and convert
// act on every value.
#include "synth/aggregate_tables.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "io/snapshot.hpp"
#include "query/plan.hpp"
#include "query/snapshot_view.hpp"
#include "support/temp_dir.hpp"
#include "util/error.hpp"

namespace appscope::synth {
namespace {

constexpr workload::Direction kDirections[] = {workload::Direction::kDownlink,
                                               workload::Direction::kUplink};

/// Every value set to its flat index over the three tables, in order.
template <typename T>
void fill_with_index(AggregateTables<T>& t, T scale) {
  T next = 0;
  for (const std::span<T> table :
       {t.national(), t.commune_totals(), t.urbanization()}) {
    for (T& v : table) {
      v = next * scale;
      ++next;
    }
  }
  t.downlink_total = next * scale;
  t.uplink_total = (next + 1) * scale;
  t.cells = 7;
}

bool same(std::span<const double> a, std::span<const double> b) {
  return std::ranges::equal(a, b);
}

TEST(AggregateTables, RowsReadBackThroughSnapshotViewAndPlan) {
  auto config = ScenarioConfig::test_scale();
  config.country.commune_count = 30;
  config.country.metro_count = 2;
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  AggregateTables<double> tables(catalog.size(), territory.size());
  fill_with_index(tables, 1.0);
  const std::string path = test_support::temp_path("tables.snapshot").string();
  io::write_snapshot(path, config, territory, subscribers, catalog, tables);

  const query::SnapshotView view(path);
  const AggregateLayout layout = view.layout();
  const auto communes = view.column(io::SectionId::kCommuneTotals);
  const auto classes = view.column(io::SectionId::kUrbanizationSeries);
  for (std::size_t s = 0; s < catalog.size(); ++s) {
    for (const auto d : kDirections) {
      EXPECT_TRUE(same(view.national_row(s, d), tables.national_row(s, d)));
      EXPECT_TRUE(same(
          communes.subspan(layout.commune_offset(s, d), view.communes()),
          tables.commune_row(s, d)));
      for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
        const auto cls = static_cast<geo::Urbanization>(u);
        EXPECT_TRUE(same(classes.subspan(layout.urbanization_offset(s, cls, d),
                                         AggregateLayout::kHours),
                         tables.urbanization_row(s, cls, d)));
      }
    }
  }

  // plan_slice resolves every row to the table's own row.
  for (const auto source : {query::Source::kNational,
                            query::Source::kCommuneTotals,
                            query::Source::kUrbanization}) {
    for (const auto d : kDirections) {
      query::Slice slice;
      slice.source = source;
      slice.direction = d;
      const query::QueryPlan plan = query::plan_slice(view.header(), slice);
      const std::span<const double> column = view.column(plan.section);
      for (const query::RowRef& row : plan.rows) {
        const std::span<const double> expected =
            source == query::Source::kNational
                ? tables.national_row(row.service, d)
            : source == query::Source::kCommuneTotals
                ? tables.commune_row(row.service, d)
                : tables.urbanization_row(
                      row.service, static_cast<geo::Urbanization>(row.cls), d);
        EXPECT_TRUE(same(column.subspan(row.elem_offset, plan.row_len), expected));
      }
    }
  }

  const io::LoadedSnapshot loaded = io::read_snapshot(path);
  EXPECT_TRUE(same(loaded.aggregates.national(), tables.national()));
  EXPECT_TRUE(same(loaded.aggregates.commune_totals(), tables.commune_totals()));
  EXPECT_TRUE(same(loaded.aggregates.urbanization(), tables.urbanization()));
  EXPECT_EQ(loaded.aggregates.downlink_total, tables.downlink_total);
  EXPECT_EQ(loaded.aggregates.uplink_total, tables.uplink_total);
  EXPECT_EQ(loaded.aggregates.cells, tables.cells);
}

TEST(AggregateTables, TablesStartOnCacheLines) {
  // 2 x 3 x 5 commune values is not a whole number of cache lines.
  AggregateTables<double> t(3, 5);
  for (const std::span<double> table :
       {t.national(), t.commune_totals(), t.urbanization()}) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table.data()) % 64, 0u);
  }
}

TEST(AggregateTables, MergeAddsEveryValueAndResetZeroesThem) {
  AggregateTables<std::uint64_t> a(3, 5);
  AggregateTables<std::uint64_t> b(3, 5);
  fill_with_index<std::uint64_t>(a, 1);
  fill_with_index<std::uint64_t>(b, 2);
  a.merge(b);
  AggregateTables<std::uint64_t> expected(3, 5);
  fill_with_index<std::uint64_t>(expected, 3);
  EXPECT_TRUE(std::ranges::equal(a.national(), expected.national()));
  EXPECT_TRUE(std::ranges::equal(a.commune_totals(), expected.commune_totals()));
  EXPECT_TRUE(std::ranges::equal(a.urbanization(), expected.urbanization()));
  EXPECT_EQ(a.downlink_total, expected.downlink_total);
  EXPECT_EQ(a.uplink_total, expected.uplink_total);
  EXPECT_EQ(a.cells, 14u);
  EXPECT_THROW(a.merge(AggregateTables<std::uint64_t>(3, 6)),
               util::PreconditionError);

  a.reset();
  EXPECT_EQ(a.layout(), b.layout());
  for (const std::span<const std::uint64_t> table :
       {a.national(), a.commune_totals(), a.urbanization()}) {
    EXPECT_TRUE(std::ranges::all_of(table, [](std::uint64_t v) { return v == 0; }));
  }
  EXPECT_EQ(a.downlink_total, 0u);
  EXPECT_EQ(a.uplink_total, 0u);
  EXPECT_EQ(a.cells, 0u);
}

TEST(AggregateTables, ConvertCastsEveryValue) {
  AggregateTables<std::uint64_t> t(2, 3);
  fill_with_index<std::uint64_t>(t, (std::uint64_t{1} << 53) + 1);
  const AggregateTables<double> d = t.convert<double>();
  EXPECT_EQ(d.layout(), t.layout());
  const auto cast_equal = [](std::span<const std::uint64_t> a,
                             std::span<const double> b) {
    return std::ranges::equal(a, b, [](std::uint64_t x, double y) {
      return static_cast<double>(x) == y;
    });
  };
  EXPECT_TRUE(cast_equal(t.national(), d.national()));
  EXPECT_TRUE(cast_equal(t.commune_totals(), d.commune_totals()));
  EXPECT_TRUE(cast_equal(t.urbanization(), d.urbanization()));
  EXPECT_EQ(d.downlink_total, static_cast<double>(t.downlink_total));
  EXPECT_EQ(d.uplink_total, static_cast<double>(t.uplink_total));
  EXPECT_EQ(d.cells, t.cells);
}

}  // namespace
}  // namespace appscope::synth
