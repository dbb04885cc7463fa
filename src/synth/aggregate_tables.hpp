// appscope/synth/aggregate_tables.hpp
//
// The three aggregate tables the paper's figures read, as one type:
//
//   national      [service][direction][hour]         Figs. 4-7
//   commune       [direction][service][commune]      Figs. 8-10 (weekly)
//   urbanization  [service][class][direction][hour]  Fig. 11
//
// plus the two direction totals and the cell (or event) count. Each table's
// element order is exactly its snapshot section payload (io/format.hpp), so
// a table is written as one span and loaded with one copy. Every table size
// and row offset in appscope is computed by AggregateLayout below.
//
// Two element types are in use. The batch pipeline sums doubles
// (T = double) and is deterministic because its rows are replayed in one
// fixed order. The ingest daemon sums byte counts as uint64
// (T = std::uint64_t): a live stream has no canonical order, but integer
// addition is associative, so per-shard partials merge to the same bits at
// any shard count, and a seal converts once with convert<double>().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "geo/commune.hpp"
#include "la/aligned.hpp"
#include "ts/calendar.hpp"
#include "util/error.hpp"
#include "workload/service.hpp"

namespace appscope::synth {

/// Sizes and row offsets of the tables for one (services, communes) shape.
struct AggregateLayout {
  static constexpr std::size_t kHours = ts::kHoursPerWeek;
  static constexpr std::size_t kDirections = workload::kDirectionCount;
  static constexpr std::size_t kClasses = geo::kUrbanizationCount;

  std::size_t services = 0;
  std::size_t communes = 0;

  constexpr std::size_t national_size() const noexcept {
    return services * kDirections * kHours;
  }
  constexpr std::size_t commune_size() const noexcept {
    return kDirections * services * communes;
  }
  constexpr std::size_t urbanization_size() const noexcept {
    return services * kClasses * kDirections * kHours;
  }

  /// First element of a row. National and urbanization rows hold kHours
  /// values, commune rows hold `communes`.
  constexpr std::size_t national_offset(std::size_t service,
                                        workload::Direction d) const noexcept {
    return (service * kDirections + static_cast<std::size_t>(d)) * kHours;
  }
  constexpr std::size_t commune_offset(std::size_t service,
                                       workload::Direction d) const noexcept {
    return (static_cast<std::size_t>(d) * services + service) * communes;
  }
  constexpr std::size_t urbanization_offset(
      std::size_t service, geo::Urbanization u,
      workload::Direction d) const noexcept {
    return ((service * kClasses + static_cast<std::size_t>(u)) * kDirections +
            static_cast<std::size_t>(d)) *
           kHours;
  }

  friend constexpr bool operator==(const AggregateLayout&,
                                   const AggregateLayout&) = default;
};

template <typename T>
class AggregateTables {
 public:
  /// Empty 0 x 0 tables (a default-constructed io::LoadedSnapshot).
  AggregateTables() = default;

  /// Zeroed tables. Throws util::PreconditionError on an empty dimension.
  AggregateTables(std::size_t services, std::size_t communes) {
    APPSCOPE_REQUIRE(services > 0 && communes > 0,
                     "AggregateTables: empty dimensions");
    allocate({services, communes});
  }

  const AggregateLayout& layout() const noexcept { return layout_; }
  std::size_t services() const noexcept { return layout_.services; }
  std::size_t communes() const noexcept { return layout_.communes; }

  /// Whole tables, each a section payload. They share one buffer, every
  /// table starting on a 64-byte boundary.
  std::span<T> national() noexcept {
    return {data_.data(), layout_.national_size()};
  }
  std::span<const T> national() const noexcept {
    return {data_.data(), layout_.national_size()};
  }
  std::span<T> commune_totals() noexcept {
    return {data_.data() + commune_begin(), layout_.commune_size()};
  }
  std::span<const T> commune_totals() const noexcept {
    return {data_.data() + commune_begin(), layout_.commune_size()};
  }
  std::span<T> urbanization() noexcept {
    return {data_.data() + urbanization_begin(), layout_.urbanization_size()};
  }
  std::span<const T> urbanization() const noexcept {
    return {data_.data() + urbanization_begin(), layout_.urbanization_size()};
  }

  /// One row of a table. Throws util::PreconditionError on a bad service.
  std::span<T> national_row(std::size_t service, workload::Direction d) {
    check_service(service);
    return national().subspan(layout_.national_offset(service, d),
                              AggregateLayout::kHours);
  }
  std::span<const T> national_row(std::size_t service,
                                  workload::Direction d) const {
    check_service(service);
    return national().subspan(layout_.national_offset(service, d),
                              AggregateLayout::kHours);
  }
  std::span<T> commune_row(std::size_t service, workload::Direction d) {
    check_service(service);
    return commune_totals().subspan(layout_.commune_offset(service, d),
                                    layout_.communes);
  }
  std::span<const T> commune_row(std::size_t service,
                                 workload::Direction d) const {
    check_service(service);
    return commune_totals().subspan(layout_.commune_offset(service, d),
                                    layout_.communes);
  }
  std::span<T> urbanization_row(std::size_t service, geo::Urbanization u,
                                workload::Direction d) {
    check_service(service);
    return urbanization().subspan(layout_.urbanization_offset(service, u, d),
                                  AggregateLayout::kHours);
  }
  std::span<const T> urbanization_row(std::size_t service, geo::Urbanization u,
                                      workload::Direction d) const {
    check_service(service);
    return urbanization().subspan(layout_.urbanization_offset(service, u, d),
                                  AggregateLayout::kHours);
  }

  T downlink_total{};
  T uplink_total{};
  /// Cells (batch) or events (daemon) folded in.
  std::uint64_t cells = 0;

  /// Element-wise sum of tables of the same shape.
  void merge(const AggregateTables& other) {
    APPSCOPE_REQUIRE(other.layout_ == layout_,
                     "AggregateTables: merging mismatched dimensions");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    downlink_total += other.downlink_total;
    uplink_total += other.uplink_total;
    cells += other.cells;
  }

  /// Zeroes every value; shape and storage are kept.
  void reset() noexcept {
    std::fill(data_.begin(), data_.end(), T{});
    downlink_total = T{};
    uplink_total = T{};
    cells = 0;
  }

  /// The same tables with every value static_cast to U.
  template <typename U>
  AggregateTables<U> convert() const {
    AggregateTables<U> out;
    out.allocate(layout_);
    const auto cast = [](T v) { return static_cast<U>(v); };
    std::ranges::transform(national(), out.national().begin(), cast);
    std::ranges::transform(commune_totals(), out.commune_totals().begin(), cast);
    std::ranges::transform(urbanization(), out.urbanization().begin(), cast);
    out.downlink_total = cast(downlink_total);
    out.uplink_total = cast(uplink_total);
    out.cells = cells;
    return out;
  }

 private:
  template <typename>
  friend class AggregateTables;

  static constexpr std::size_t block(std::size_t n) noexcept {
    return la::padded_count<T>(n);
  }
  std::size_t commune_begin() const noexcept {
    return block(layout_.national_size());
  }
  std::size_t urbanization_begin() const noexcept {
    return commune_begin() + block(layout_.commune_size());
  }
  void check_service(std::size_t service) const {
    APPSCOPE_REQUIRE(service < layout_.services,
                     "AggregateTables: service out of range");
  }
  void allocate(const AggregateLayout& layout) {
    layout_ = layout;
    data_.assign(block(layout.national_size()) + block(layout.commune_size()) +
                     block(layout.urbanization_size()),
                 T{});
  }

  AggregateLayout layout_;
  la::AlignedVector<T> data_;
};

}  // namespace appscope::synth
