// End-to-end bitwise parity of the la::simd dispatch: every pipeline that
// crosses a dispatched kernel (FFT plans, z-normalization, SBD matrices,
// k-Shape, the analytic generator) must produce identical bits whether the
// active table is the AVX2 one or the scalar reference, at every thread
// count. This is the project's determinism contract for the SIMD layer:
// APPSCOPE_SIMD is a performance knob, never a results knob.
//
// Suite name starts with "Parallel" so the TSan preset (ctest filter
// ^Parallel) also races the dispatch flip against the worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "la/fft_plan.hpp"
#include "la/simd.hpp"
#include "support/cell_fold.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "ts/kshape.hpp"
#include "ts/sbd.hpp"
#include "ts/series_batch.hpp"
#include "ts/znorm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace appscope {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::vector<std::vector<double>> noisy_weekly_series(std::size_t count,
                                                     std::uint64_t seed,
                                                     std::size_t length = 168) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> series;
  series.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<double> v(length);
    const double phase = rng.uniform(0.0, 6.28);
    for (std::size_t h = 0; h < v.size(); ++h) {
      v[h] = 5.0 +
             std::sin(2.0 * M_PI * static_cast<double>(h % 24) / 24.0 + phase) +
             0.3 * rng.normal();
    }
    series.push_back(std::move(v));
  }
  return series;
}

/// Runs `fn` under the scalar table and (when available) the AVX2 table, at
/// every thread count, and checks every run compares equal to the first.
/// The dispatch is restored afterwards.
template <typename Fn>
void expect_identical_across_dispatch_and_threads(Fn&& fn) {
  using Result = decltype(fn());
  namespace simd = la::simd;
  const simd::Dispatch original = simd::active_dispatch();

  simd::set_dispatch(simd::Dispatch::kScalar);
  util::ThreadPool::set_global_threads(kThreadCounts[0]);
  const Result reference = fn();

  const std::vector<simd::Dispatch> dispatches =
      simd::avx2_available()
          ? std::vector<simd::Dispatch>{simd::Dispatch::kScalar,
                                        simd::Dispatch::kAvx2}
          : std::vector<simd::Dispatch>{simd::Dispatch::kScalar};
  for (const simd::Dispatch d : dispatches) {
    simd::set_dispatch(d);
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool::set_global_threads(threads);
      const Result got = fn();
      EXPECT_TRUE(got == reference)
          << "output differs under "
          << (d == simd::Dispatch::kAvx2 ? "avx2" : "scalar") << " at "
          << threads << " threads";
    }
  }
  util::ThreadPool::set_global_threads(0);
  simd::set_dispatch(original);
}

TEST(ParallelSimdParity, RealFftRoundTrip) {
  const auto series = noisy_weekly_series(4, 101);
  expect_identical_across_dispatch_and_threads([&] {
    const la::RealFftPlan& plan = la::RealFftPlan::plan_for(512);
    std::vector<double> flat;
    for (const auto& s : series) {
      std::vector<std::complex<double>> spectrum(plan.spectrum_size());
      plan.forward(s, spectrum);
      for (const auto& bin : spectrum) {
        flat.push_back(bin.real());
        flat.push_back(bin.imag());
      }
      std::vector<double> back(plan.size());
      plan.inverse(spectrum, back);
      flat.insert(flat.end(), back.begin(), back.end());
    }
    return flat;
  });
}

TEST(ParallelSimdParity, CrossCorrelationFft) {
  // At m = 168 ts::sbd correlates through the real-FFT plans and the
  // dispatched conjugate product.
  const auto series = noisy_weekly_series(2, 102);
  expect_identical_across_dispatch_and_threads([&] {
    const ts::SbdResult r = ts::sbd(series[0], series[1]);
    return std::vector<double>{r.distance, r.ncc,
                               static_cast<double>(r.shift)};
  });
}

TEST(ParallelSimdParity, Znormalize) {
  const auto series = noisy_weekly_series(8, 103);
  expect_identical_across_dispatch_and_threads([&] {
    std::vector<std::vector<double>> out;
    for (const auto& s : series) out.push_back(ts::znormalize(s));
    return out;
  });
}

TEST(ParallelSimdParity, SbdDistanceMatrix) {
  const auto series = noisy_weekly_series(24, 104);
  expect_identical_across_dispatch_and_threads([&] {
    const ts::SeriesBatch batch(series);
    return ts::sbd_distance_matrix(batch).cells();
  });
}

TEST(ParallelSimdParity, SbdPairsIncludingZeroNormAndTies) {
  // Adversarial pairs for the max-scan: constant (zero-norm) series, exact
  // ties from periodic series, and anti-phase pairs where the best lag is
  // negative (range-order tie-breaking in the spectral scan).
  std::vector<std::vector<double>> pairs = noisy_weekly_series(4, 105);
  pairs.push_back(std::vector<double>(168, 3.25));  // zero norm after znorm
  std::vector<double> square(168);
  for (std::size_t h = 0; h < square.size(); ++h) {
    square[h] = (h / 12) % 2 == 0 ? 1.0 : -1.0;  // periodic: many tied lags
  }
  pairs.push_back(square);
  std::vector<double> shifted(square.rbegin(), square.rend());
  pairs.push_back(shifted);
  expect_identical_across_dispatch_and_threads([&] {
    std::vector<double> flat;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      for (std::size_t j = 0; j < pairs.size(); ++j) {
        const ts::SbdResult r = ts::sbd(pairs[i], pairs[j]);
        flat.push_back(r.distance);
        flat.push_back(static_cast<double>(r.shift));
        flat.push_back(r.ncc);
      }
    }
    return flat;
  });
}

TEST(ParallelSimdParity, KShape) {
  const auto series = noisy_weekly_series(24, 106);
  ts::KShapeOptions opts;
  opts.k = 4;
  expect_identical_across_dispatch_and_threads([&] {
    const ts::KShapeResult r = ts::kshape(series, opts);
    return std::make_tuple(r.assignments, r.centroids, r.inertia, r.iterations);
  });
}

TEST(ParallelSimdParity, AnalyticGeneratorAggregates) {
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = 150;
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);
  expect_identical_across_dispatch_and_threads([&] {
    synth::AggregateSink sink(catalog.size(), territory.size());
    gen.generate(sink);
    const synth::AggregateTables<double>& t = sink.tables();
    std::vector<double> flat(t.national().begin(), t.national().end());
    flat.insert(flat.end(), t.commune_totals().begin(), t.commune_totals().end());
    flat.insert(flat.end(), t.urbanization().begin(), t.urbanization().end());
    flat.push_back(t.downlink_total);
    flat.push_back(t.uplink_total);
    flat.push_back(static_cast<double>(t.cells));
    return flat;
  });
}

TEST(ParallelSimdParity, RowPathMatchesCellPath) {
  // The row-based generator fold must equal an hour-at-a-time fold of the
  // very same stream (tests/support/cell_fold.hpp), bitwise, in every
  // table.
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = 80;
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);

  // Under every available dispatch: the accumulate kernel must add the same
  // bits per hour as the scalar reference.
  std::vector<la::simd::Dispatch> dispatches = {la::simd::Dispatch::kScalar};
  if (la::simd::avx2_available()) dispatches.push_back(la::simd::Dispatch::kAvx2);
  const la::simd::Dispatch before = la::simd::active_dispatch();
  for (const la::simd::Dispatch dispatch : dispatches) {
    la::simd::set_dispatch(dispatch);
    synth::AggregateSink rows(catalog.size(), territory.size());
    gen.generate(rows);
    test_support::CellFoldSink cells(catalog.size(), territory.size());
    gen.generate(cells);
    test_support::expect_bitwise_equal(rows.tables(), cells.tables());
  }
  la::simd::set_dispatch(before);
}

}  // namespace
}  // namespace appscope
