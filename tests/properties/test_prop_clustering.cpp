// Property-based sweeps over the clustering stack: structural invariants of
// k-Shape and k-means for every k, plus quality-index sanity on the results.
#include <gtest/gtest.h>

#include <cmath>

#include "la/vector_ops.hpp"
#include "ts/cluster_quality.hpp"
#include "ts/kmeans.hpp"
#include "ts/kshape.hpp"
#include "ts/sbd.hpp"
#include "ts/series_batch.hpp"
#include "ts/znorm.hpp"
#include "util/rng.hpp"

namespace appscope::ts {
namespace {

/// 18 series from three sine families plus noise — enough structure for any
/// k in [2, 12] to produce non-degenerate clusterings.
std::vector<std::vector<double>> corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> series;
  for (const double period : {12.0, 24.0, 48.0}) {
    for (int i = 0; i < 6; ++i) {
      std::vector<double> v(96);
      const double phase = rng.uniform(0.0, 2.0 * M_PI);
      for (std::size_t h = 0; h < v.size(); ++h) {
        v[h] = std::sin(2.0 * M_PI * static_cast<double>(h) / period + phase) +
               0.15 * rng.normal();
      }
      series.push_back(std::move(v));
    }
  }
  return series;
}

class ClusteringProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClusteringProperties, KShapeStructuralInvariants) {
  const auto series = corpus(100 + GetParam());
  KShapeOptions opts;
  opts.k = GetParam();
  const KShapeResult result = kshape(series, opts);

  ASSERT_EQ(result.assignments.size(), series.size());
  ASSERT_EQ(result.centroids.size(), opts.k);
  std::vector<std::size_t> counts(opts.k, 0);
  for (const auto a : result.assignments) {
    ASSERT_LT(a, opts.k);
    ++counts[a];
  }
  for (std::size_t c = 0; c < opts.k; ++c) {
    EXPECT_GT(counts[c], 0u) << "empty cluster " << c;
    EXPECT_TRUE(is_znormalized(result.centroids[c], 1e-6)) << c;
  }
  EXPECT_GE(result.inertia, 0.0);
  EXPECT_GT(result.iterations, 0u);
}

TEST_P(ClusteringProperties, KShapeAssignsEachSeriesToItsNearestCentroid) {
  const auto series = corpus(200 + GetParam());
  KShapeOptions opts;
  opts.k = GetParam();
  const KShapeResult result = kshape(series, opts);
  // Assignment step runs after refinement, so on convergence every series
  // sits with its closest centroid.
  if (!result.converged) GTEST_SKIP() << "did not converge in budget";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto z = znormalize(std::span<const double>(series[i]));
    const double own = sbd_distance(result.centroids[result.assignments[i]], z);
    for (std::size_t c = 0; c < opts.k; ++c) {
      ASSERT_LE(own, sbd_distance(result.centroids[c], z) + 1e-9)
          << "series " << i << " cluster " << c;
    }
  }
}

TEST_P(ClusteringProperties, KShapeDeterminism) {
  const auto series = corpus(300 + GetParam());
  KShapeOptions opts;
  opts.k = GetParam();
  const KShapeResult a = kshape(series, opts);
  const KShapeResult b = kshape(series, opts);
  EXPECT_EQ(a.assignments, b.assignments);
}

TEST_P(ClusteringProperties, KMeansStructuralInvariants) {
  const auto series = corpus(400 + GetParam());
  KMeansOptions opts;
  opts.k = GetParam();
  const KMeansResult result = kmeans(series, opts);
  ASSERT_EQ(result.assignments.size(), series.size());
  for (const auto a : result.assignments) ASSERT_LT(a, opts.k);
  EXPECT_GE(result.inertia, 0.0);

  // Every series sits with its nearest centroid.
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double own =
        la::squared_distance(series[i], result.centroids[result.assignments[i]]);
    for (std::size_t c = 0; c < opts.k; ++c) {
      ASSERT_LE(own, la::squared_distance(series[i], result.centroids[c]) + 1e-9);
    }
  }
}

TEST_P(ClusteringProperties, QualityIndicesWellDefinedOnBothClusterers) {
  const auto series = corpus(500 + GetParam());
  const DistanceFn sbd_dist = [](std::span<const double> a,
                                 std::span<const double> b) {
    return sbd_distance(a, b);
  };
  const DistanceFn euclid = [](std::span<const double> a,
                               std::span<const double> b) {
    return la::distance(a, b);
  };

  std::vector<std::vector<double>> z;
  for (const auto& s : series) z.push_back(znormalize(std::span<const double>(s)));

  KShapeOptions kopts;
  kopts.k = GetParam();
  const KShapeResult ks = kshape(series, kopts);
  const ClusteringView view{ks.assignments, ks.centroids};
  const QualityIndices qs = evaluate_quality(z, view, sbd_dist);
  EXPECT_GE(qs.davies_bouldin, 0.0);
  EXPECT_GE(qs.davies_bouldin_star, qs.davies_bouldin - 1e-9);
  EXPECT_GE(qs.dunn, 0.0);
  EXPECT_GE(qs.silhouette, -1.0);
  EXPECT_LE(qs.silhouette, 1.0);

  // The cached-spectra overload computes every SBD of DB/DB* in the functor
  // overload's argument order, so both indices match bitwise. Dunn and
  // silhouette read the pairwise matrix, which mirrors its upper triangle
  // where the functor evaluates both argument orders (SBD is symmetric only
  // to round-off): bitwise equal to the matrix overloads, and within
  // round-off of the functor.
  const SeriesBatch batch(z);
  const DistanceMatrix pairwise = sbd_distance_matrix(batch);
  const QualityIndices qb = evaluate_quality(batch, view, pairwise);
  EXPECT_EQ(qb.davies_bouldin, qs.davies_bouldin);
  EXPECT_EQ(qb.davies_bouldin_star, qs.davies_bouldin_star);
  EXPECT_EQ(qb.dunn, dunn_index(pairwise, view.assignments));
  EXPECT_EQ(qb.silhouette, silhouette(pairwise, view.assignments));
  EXPECT_NEAR(qb.dunn, qs.dunn, 1e-12);
  EXPECT_NEAR(qb.silhouette, qs.silhouette, 1e-12);

  KMeansOptions mopts;
  mopts.k = GetParam();
  const KMeansResult km = kmeans(z, mopts);
  const QualityIndices qm =
      evaluate_quality(z, {km.assignments, km.centroids}, euclid);
  EXPECT_GE(qm.davies_bouldin, 0.0);
  EXPECT_GE(qm.silhouette, -1.0);
  EXPECT_LE(qm.silhouette, 1.0);
}

INSTANTIATE_TEST_SUITE_P(KSweep, ClusteringProperties,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 8u, 10u, 12u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "k" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace appscope::ts
