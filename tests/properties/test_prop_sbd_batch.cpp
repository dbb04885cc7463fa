// Determinism and equivalence properties for the spectrum-cached SBD batch
// path (ts/series_batch.hpp):
//
//  - the flat SeriesBatch distance matrix is bitwise identical to the
//    per-pair path, and it and k-Shape (which always runs on cached
//    spectra) are bitwise identical at any thread count;
//  - the DistanceMatrix overloads of the cluster-quality indices equal
//    their distance-functor counterparts.
//
// Suite name starts with "Parallel" so the TSan preset (ctest filter
// ^Parallel) races these paths too.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ts/cluster_quality.hpp"
#include "ts/kshape.hpp"
#include "ts/sbd.hpp"
#include "ts/series_batch.hpp"
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

/// Runs `fn` once per thread count and checks all results compare equal.
template <typename Fn>
void expect_identical_across_thread_counts(Fn&& fn) {
  using Result = decltype(fn());
  util::ThreadPool::set_global_threads(kThreadCounts[0]);
  const Result reference = fn();
  for (std::size_t t = 1; t < std::size(kThreadCounts); ++t) {
    util::ThreadPool::set_global_threads(kThreadCounts[t]);
    const Result got = fn();
    EXPECT_TRUE(got == reference)
        << "output differs at " << kThreadCounts[t] << " threads";
  }
  util::ThreadPool::set_global_threads(0);
}

std::vector<double> flatten_kshape(const ts::KShapeResult& result) {
  std::vector<double> flat;
  for (const std::size_t a : result.assignments) {
    flat.push_back(static_cast<double>(a));
  }
  for (const auto& centroid : result.centroids) {
    flat.insert(flat.end(), centroid.begin(), centroid.end());
  }
  flat.push_back(result.inertia);
  flat.push_back(static_cast<double>(result.iterations));
  return flat;
}

TEST(ParallelSbdBatch, BatchMatrixIsBitwiseIdenticalAcrossThreads) {
  // Both sides of the spectral cutover: 64 runs direct, 168 spectral.
  for (const std::size_t length : {64u, 168u}) {
    const auto series = noisy_weekly_series(24, 51, length);
    expect_identical_across_thread_counts([&] {
      const ts::SeriesBatch batch(series);
      return ts::sbd_distance_matrix(batch);
    });
  }
}

TEST(ParallelSbdBatch, BatchMatrixEqualsPerPairMatrix) {
  for (const std::size_t length : {64u, 168u}) {
    const auto series = noisy_weekly_series(20, 53, length);
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool::set_global_threads(threads);
      const ts::SeriesBatch batch(series);
      const ts::DistanceMatrix flat = ts::sbd_distance_matrix(batch);
      util::ThreadPool::set_global_threads(1);
      // The bitwise contract covers the computed upper triangle: the matrix
      // mirrors it (sbd is symmetric only to round-off, not bitwise) and
      // hard-codes a zero diagonal (sbd(x, x) is ~1e-16, not exactly 0).
      for (std::size_t i = 0; i < flat.size(); ++i) {
        EXPECT_EQ(flat(i, i), 0.0);
        for (std::size_t j = i + 1; j < flat.size(); ++j) {
          EXPECT_EQ(flat(i, j), ts::sbd_distance(series[i], series[j]))
              << "m=" << length << " threads=" << threads << " (" << i << ","
              << j << ")";
          EXPECT_EQ(flat(i, j), flat(j, i));
        }
      }
    }
    util::ThreadPool::set_global_threads(0);
  }
}

TEST(ParallelSbdBatch, KShapeCachedSpectraIsBitwiseIdenticalAcrossThreads) {
  const auto series = noisy_weekly_series(30, 59);
  ts::KShapeOptions opts;
  opts.k = 4;
  expect_identical_across_thread_counts(
      [&] { return flatten_kshape(ts::kshape(series, opts)); });
}

TEST(ParallelSbdBatch, ClusterQualityMatrixOverloadEqualsFunctor) {
  const auto series = noisy_weekly_series(24, 67);
  std::vector<std::size_t> assignments(series.size());
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    assignments[i] = i % 3;
  }
  const ts::DistanceFn sbd_fn = [](std::span<const double> a,
                                   std::span<const double> b) {
    return ts::sbd_distance(a, b);
  };
  expect_identical_across_thread_counts([&] {
    const ts::SeriesBatch batch(series);
    const ts::DistanceMatrix pairwise = ts::sbd_distance_matrix(batch);
    std::vector<double> flat;
    flat.push_back(ts::silhouette(pairwise, assignments));
    flat.push_back(ts::dunn_index(pairwise, assignments));
    // Functor counterparts recompute the distances through sbd_fn. The
    // matrix reads the mirrored upper triangle where the functor evaluates
    // both argument orders, and sbd is symmetric only to round-off — so
    // the indices agree to tolerance, not bitwise.
    flat.push_back(ts::silhouette(series, assignments, sbd_fn));
    flat.push_back(ts::dunn_index(series, assignments, sbd_fn));
    EXPECT_NEAR(flat[0], flat[2], 1e-12);
    EXPECT_NEAR(flat[1], flat[3], 1e-12);
    return flat;
  });
}

}  // namespace
}  // namespace appscope
