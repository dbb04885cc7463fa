#include "core/slicing.hpp"

#include <span>

#include "la/simd.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace appscope::core {

namespace {

/// Services per parallel chunk; fixed so per-slot work partitions the same
/// way at every thread count (each slot is independent anyway).
constexpr std::size_t kServiceChunk = 4;

/// The shared row analysis both the dataset path and the query path run.
/// `row(s)` returns the 168-hour national series of service s; rows may be
/// fetched concurrently from pool threads (the snapshot reader and the
/// in-memory dataset both allow that).
template <typename RowFn, typename NameFn>
SlicingReport analyze_rows(std::size_t service_count, const RowFn& row,
                           const NameFn& name, workload::Direction d) {
  const la::simd::Kernels& k = la::simd::active();
  SlicingReport report;
  report.direction = d;
  report.slices.resize(service_count);

  // Per-slice peak / mean: independent slots, any thread order.
  util::parallel_for(
      0, service_count, kServiceChunk, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const std::span<const double> series = row(s);
          SliceDemand& slice = report.slices[s];
          slice.service = s;
          slice.name = name(s);
          const double peak = k.max_value(series.data(), series.size());
          if (peak > 0.0) {
            slice.peak = peak;
            slice.peak_hour =
                k.find_first_equal(series.data(), series.size(), peak);
          }
          slice.mean = k.sum_stripes(series.data(), series.size()) /
                       static_cast<double>(series.size());
        }
      });

  // Sequential, service-ordered combines: the sum of peaks and the
  // elementwise hourly total are the same IEEE operation sequence at every
  // thread count.
  std::vector<double> hourly_total(ts::kHoursPerWeek, 0.0);
  for (std::size_t s = 0; s < service_count; ++s) {
    report.static_capacity += report.slices[s].peak;
    const std::span<const double> series = row(s);
    k.accumulate(hourly_total.data(), series.data(), hourly_total.size());
  }
  const double busy =
      k.max_value(hourly_total.data(), hourly_total.size());
  if (busy > 0.0) {
    report.dynamic_capacity = busy;
    report.busy_hour =
        k.find_first_equal(hourly_total.data(), hourly_total.size(), busy);
  }
  APPSCOPE_CHECK(report.dynamic_capacity <= report.static_capacity + 1e-6,
                 "slicing: hourly total exceeded the sum of peaks");
  return report;
}

template <typename RowFn>
la::Matrix cooccurrence_rows(std::size_t service_count, const RowFn& row,
                             double threshold) {
  APPSCOPE_REQUIRE(threshold > 0.0 && threshold <= 1.0,
                   "peak_cooccurrence: threshold must be in (0,1]");
  const la::simd::Kernels& k = la::simd::active();
  const std::size_t n = service_count;

  // Per-service boolean "near own peak" per hour (independent slots).
  std::vector<std::vector<bool>> hot(n,
                                     std::vector<bool>(ts::kHoursPerWeek, false));
  util::parallel_for(0, n, kServiceChunk, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      const std::span<const double> series = row(s);
      const double top = k.max_value(series.data(), series.size());
      const double peak = top > 0.0 ? top : 0.0;
      for (std::size_t h = 0; h < series.size(); ++h) {
        hot[s][h] = series[h] >= threshold * peak;
      }
    }
  });

  la::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      bool together = false;
      for (std::size_t h = 0; h < ts::kHoursPerWeek && !together; ++h) {
        together = hot[i][h] && hot[j][h];
      }
      m(i, j) = m(j, i) = together ? 1.0 : 0.0;
    }
  }
  return m;
}

}  // namespace

SlicingReport analyze_slicing(const TrafficDataset& dataset,
                              workload::Direction d) {
  return analyze_rows(
      dataset.service_count(),
      [&](std::size_t s) {
        return std::span<const double>(dataset.national_series(s, d));
      },
      [&](std::size_t s) { return dataset.catalog()[s].name; }, d);
}

SlicingReport analyze_slicing(const query::SnapshotView& view,
                              workload::Direction d) {
  return analyze_rows(
      view.services(), [&](std::size_t s) { return view.national_row(s, d); },
      [&](std::size_t s) { return view.catalog()[s].name; }, d);
}

la::Matrix peak_cooccurrence(const query::SnapshotView& view,
                             workload::Direction d, double threshold) {
  return cooccurrence_rows(
      view.services(), [&](std::size_t s) { return view.national_row(s, d); },
      threshold);
}

}  // namespace appscope::core
