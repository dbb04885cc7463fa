#include "ts/kshape.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "la/eigen.hpp"
#include "la/matrix.hpp"
#include "la/vector_ops.hpp"
#include "ts/sbd.hpp"
#include "ts/znorm.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::ts {
namespace {

std::vector<double> sine(std::size_t n, double period, double phase,
                         double noise, util::Rng& rng) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::sin(2.0 * M_PI * (static_cast<double>(i) / period) + phase) +
             noise * rng.normal();
  }
  return out;
}

std::vector<double> square(std::size_t n, double period, double noise,
                           util::Rng& rng) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = std::fmod(static_cast<double>(i), period) / period;
    out[i] = (t < 0.5 ? 1.0 : -1.0) + noise * rng.normal();
  }
  return out;
}

/// Two clearly distinct shape families with random phases and mild noise.
std::vector<std::vector<double>> two_family_dataset(std::size_t per_family,
                                                    util::Rng& rng) {
  std::vector<std::vector<double>> series;
  for (std::size_t i = 0; i < per_family; ++i) {
    series.push_back(sine(96, 24.0, rng.uniform(0.0, 1.0), 0.05, rng));
  }
  for (std::size_t i = 0; i < per_family; ++i) {
    series.push_back(square(96, 48.0, 0.05, rng));
  }
  return series;
}

/// The shape extract of every series in `members`, aligned to `reference`
/// (unaligned when it is empty).
std::vector<double> extract(const std::vector<std::vector<double>>& members,
                            const std::vector<double>& reference) {
  std::vector<std::size_t> idx(members.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  SeriesBatch ref(1, members.front().size());
  if (!reference.empty()) ref.set_series(0, reference);
  return shape_extract(SeriesBatch(members), idx, ref, 0, sbd_scratch());
}

TEST(ShapeExtract, SingleMemberRecoversItsShape) {
  util::Rng rng(1);
  const auto member = sine(64, 16.0, 0.3, 0.0, rng);
  const auto centroid = extract({member}, {});
  // The extracted shape matches the z-normalized member up to SBD ~ 0.
  const auto z = znormalize(std::span<const double>(member));
  EXPECT_NEAR(sbd_distance(z, centroid), 0.0, 1e-6);
}

TEST(ShapeExtract, CentroidIsZNormalizedUnitShape) {
  util::Rng rng(2);
  std::vector<std::vector<double>> members;
  for (int i = 0; i < 5; ++i) members.push_back(sine(48, 12.0, 0.1, 0.1, rng));
  const auto centroid = extract(members, {});
  EXPECT_TRUE(is_znormalized(centroid, 1e-6));
}

TEST(ShapeExtract, CloseToEveryAlignedMember) {
  util::Rng rng(3);
  std::vector<std::vector<double>> members;
  for (int i = 0; i < 8; ++i) members.push_back(sine(72, 24.0, 0.2, 0.05, rng));
  const auto centroid = extract(members, members.front());
  for (const auto& m : members) {
    EXPECT_LT(sbd_distance(centroid, znormalize(std::span<const double>(m))),
              0.1);
  }
}

TEST(ShapeExtract, Preconditions) {
  const SeriesBatch data(std::vector<std::vector<double>>{{1.0, 2.0, 3.0},
                                                          {2.0, 1.0, 3.0}});
  const SeriesBatch reference(1, 3);
  EXPECT_THROW(shape_extract(data, {}, reference, 0, sbd_scratch()),
               util::PreconditionError);
  const SeriesBatch single_sample(
      std::vector<std::vector<double>>{{1.0}, {2.0}});
  EXPECT_THROW(
      shape_extract(single_sample, {0}, SeriesBatch(1, 1), 0, sbd_scratch()),
      util::PreconditionError);
  // A reference of another length is an error, not "no reference".
  EXPECT_THROW(shape_extract(data, {0}, SeriesBatch(1, 2), 0, sbd_scratch()),
               util::PreconditionError);
  EXPECT_THROW(shape_extract(data, {0}, SeriesBatch(1, 4), 0, sbd_scratch()),
               util::PreconditionError);
  EXPECT_THROW(shape_extract(data, {0}, reference, 1, sbd_scratch()),
               util::PreconditionError);
  EXPECT_THROW(shape_extract(data, {0, 2}, reference, 0, sbd_scratch()),
               util::PreconditionError);
}

/// The centroid definition spelled out on an explicit n×n matrix: the top
/// eigenvector of M = Q S Q, S = Σ aᵢaᵢᵀ over the aligned, z-normalized
/// members, Q = I - (1/n)·1·1ᵀ, oriented towards the first member.
std::vector<double> qsq_top_eigenvector(
    const std::vector<std::vector<double>>& members,
    const std::vector<double>& reference) {
  const std::size_t n = members.front().size();
  la::Matrix s(n, n);
  for (const auto& member : members) {
    std::vector<double> a =
        reference.empty() ? member
                          : shift_series(member, sbd(reference, member).shift);
    znormalize_inplace(a);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) s(i, j) += a[i] * a[j];
    }
  }
  la::Matrix q = la::Matrix::identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) q(i, j) -= 1.0 / static_cast<double>(n);
  }
  const auto product = [n](const la::Matrix& x, const la::Matrix& y) {
    la::Matrix out(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t j = 0; j < n; ++j) out(i, j) += x(i, k) * y(k, j);
      }
    }
    return out;
  };
  la::Matrix m = product(product(q, s), q);
  for (std::size_t i = 0; i < n; ++i) {  // symmetric to the last bit
    for (std::size_t j = i + 1; j < n; ++j) m(j, i) = m(i, j);
  }
  const la::EigenDecomposition eig = la::jacobi_eigen(m);
  std::vector<double> top(eig.vectors.row(0).begin(), eig.vectors.row(0).end());
  const auto probe = znormalize(std::span<const double>(members.front()));
  if (la::dot(probe, top) < 0.0) {
    for (double& v : top) v = -v;
  }
  return top;
}

TEST(ShapeExtract, MatchesTopEigenvectorOfQSQ) {
  util::Rng rng(12);
  for (const std::size_t n : {24u, 48u}) {
    for (const std::size_t m : {1u, 2u, 3u, 8u}) {
      // One daily-like shape with jittered phase and noise, so the top
      // eigenvalue is well separated from the rest.
      std::vector<std::vector<double>> members;
      for (std::size_t i = 0; i < m; ++i) {
        std::vector<double> v(n);
        const double phase = rng.uniform(-0.4, 0.4);
        for (std::size_t h = 0; h < n; ++h) {
          const double x = 2.0 * M_PI * static_cast<double>(h) / 12.0 + phase;
          v[h] = 3.0 + std::sin(x) + 0.5 * std::sin(2.0 * x) +
                 0.2 * rng.normal();
        }
        members.push_back(std::move(v));
      }
      const std::vector<double> reference = znormalize(std::span<const double>(
          sine(n, 12.0, 0.2, 0.1, rng)));
      for (const bool aligned : {false, true}) {
        const std::vector<double> ref =
            aligned ? reference : std::vector<double>{};
        const auto centroid = extract(members, ref);
        const auto expected = qsq_top_eigenvector(members, ref);
        const double cos = la::dot(centroid, expected) /
                           (la::norm2(centroid) * la::norm2(expected));
        EXPECT_GE(std::abs(cos), 1.0 - 1e-9)
            << "n=" << n << " m=" << m << " aligned=" << aligned;
        EXPECT_GT(cos, 0.0) << "n=" << n << " m=" << m
                            << " aligned=" << aligned;
      }
    }
  }
}

TEST(ShapeExtract, AllConstantMembersGiveZeroCentroid) {
  // Unaligned (no reference, or an all-zero one), constant members
  // z-normalize to zero rows. Alignment to a real reference would shift
  // them, zero-padded, into non-constant steps.
  const std::vector<std::vector<double>> members{
      std::vector<double>(24, 3.0), std::vector<double>(24, 0.0),
      std::vector<double>(24, -1.5)};
  for (const auto& ref : {std::vector<double>{}, std::vector<double>(24, 0.0)}) {
    EXPECT_EQ(extract(members, ref), std::vector<double>(24, 0.0));
    EXPECT_EQ(extract({members.front()}, ref),
              std::vector<double>(24, 0.0));
  }
}

TEST(KShape, SeparatesTwoShapeFamilies) {
  util::Rng rng(4);
  const auto series = two_family_dataset(6, rng);
  KShapeOptions opts;
  opts.k = 2;
  opts.seed = 11;
  const KShapeResult result = kshape(series, opts);
  ASSERT_EQ(result.assignments.size(), 12u);
  // All sines together, all squares together.
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(result.assignments[i], result.assignments[0]) << i;
  }
  for (std::size_t i = 7; i < 12; ++i) {
    EXPECT_EQ(result.assignments[i], result.assignments[6]) << i;
  }
  EXPECT_NE(result.assignments[0], result.assignments[6]);
  EXPECT_TRUE(result.converged);
}

TEST(KShape, PhaseShiftedCopiesClusterTogether) {
  // The defining property of SBD/k-Shape: time-shifted versions of the same
  // shape belong together.
  util::Rng rng(5);
  std::vector<std::vector<double>> series;
  for (int i = 0; i < 8; ++i) {
    std::vector<double> pulse(64, 0.0);
    const std::size_t at = 8 + static_cast<std::size_t>(rng.uniform_index(20));
    pulse[at] = 1.0;
    pulse[at + 1] = 2.0;
    pulse[at + 2] = 1.0;
    series.push_back(std::move(pulse));
  }
  for (int i = 0; i < 8; ++i) series.push_back(square(64, 32.0, 0.02, rng));
  KShapeOptions opts;
  opts.k = 2;
  const KShapeResult result = kshape(series, opts);
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_EQ(result.assignments[i], result.assignments[0]);
  }
  EXPECT_NE(result.assignments[8], result.assignments[0]);
}

TEST(KShape, KEqualsOneGroupsEverything) {
  util::Rng rng(6);
  const auto series = two_family_dataset(3, rng);
  KShapeOptions opts;
  opts.k = 1;
  const KShapeResult result = kshape(series, opts);
  for (const auto a : result.assignments) EXPECT_EQ(a, 0u);
  EXPECT_EQ(result.cluster_count(), 1u);
}

TEST(KShape, KEqualsNGivesNearSingletons) {
  util::Rng rng(7);
  const auto series = two_family_dataset(2, rng);
  KShapeOptions opts;
  opts.k = series.size();
  const KShapeResult result = kshape(series, opts);
  // Every cluster non-empty.
  std::vector<bool> used(opts.k, false);
  for (const auto a : result.assignments) used[a] = true;
  for (std::size_t c = 0; c < opts.k; ++c) EXPECT_TRUE(used[c]) << c;
}

TEST(KShape, DeterministicForFixedSeed) {
  util::Rng rng(8);
  const auto series = two_family_dataset(4, rng);
  KShapeOptions opts;
  opts.k = 3;
  opts.seed = 99;
  const KShapeResult a = kshape(series, opts);
  const KShapeResult b = kshape(series, opts);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KShape, InertiaDecreasesWithMoreClusters) {
  util::Rng rng(9);
  const auto series = two_family_dataset(5, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (const std::size_t k : {1u, 2u, 4u}) {
    KShapeOptions opts;
    opts.k = k;
    const double inertia = kshape(series, opts).inertia;
    EXPECT_LE(inertia, prev + 1e-9) << "k=" << k;
    prev = inertia;
  }
}

TEST(KShape, SurvivesConstantSeries) {
  // Constant series z-normalize to all-zero shapes; the clusterer must not
  // crash or divide by zero, and every series must land in a valid cluster.
  std::vector<std::vector<double>> series(6, std::vector<double>(24, 3.0));
  series[4] = std::vector<double>(24, 0.0);
  util::Rng rng(3);
  for (std::size_t h = 0; h < 24; ++h) {
    series[5][h] = std::sin(static_cast<double>(h)) + 0.1 * rng.normal();
  }
  KShapeOptions opts;
  opts.k = 2;
  const KShapeResult result = kshape(series, opts);
  ASSERT_EQ(result.assignments.size(), 6u);
  for (const auto a : result.assignments) EXPECT_LT(a, 2u);
}

TEST(KShape, AllConstantSeriesSitAtUnitDistance) {
  // Every centroid extracts to all zero. No series can move to a real
  // shape, so each keeps its cluster at SBD 1 (the zero-norm convention)
  // and the inertia stays the documented sum of those distances.
  std::vector<std::vector<double>> series(6, std::vector<double>(24, 3.0));
  series[2] = std::vector<double>(24, -1.0);
  series[4] = std::vector<double>(24, 0.0);
  KShapeOptions opts;
  opts.k = 2;
  const KShapeResult result = kshape(series, opts);
  ASSERT_EQ(result.assignments.size(), series.size());
  for (const auto a : result.assignments) EXPECT_LT(a, 2u);
  for (const auto& centroid : result.centroids) {
    EXPECT_EQ(centroid, std::vector<double>(24, 0.0));
  }
  EXPECT_EQ(result.inertia, static_cast<double>(series.size()));
  EXPECT_TRUE(result.converged);
}

TEST(KShape, DuplicateSeriesShareACluster) {
  util::Rng rng(11);
  std::vector<std::vector<double>> series;
  std::vector<double> base(48);
  for (std::size_t h = 0; h < base.size(); ++h) {
    base[h] = std::sin(2.0 * M_PI * static_cast<double>(h) / 12.0);
  }
  for (int i = 0; i < 4; ++i) series.push_back(base);
  for (int i = 0; i < 4; ++i) series.push_back(square(48, 24.0, 0.02, rng));
  KShapeOptions opts;
  opts.k = 2;
  const KShapeResult result = kshape(series, opts);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(result.assignments[i], result.assignments[0]);
  }
}

TEST(KShape, Preconditions) {
  const std::vector<std::vector<double>> series{{1.0, 2.0, 3.0}, {2.0, 3.0, 4.0}};
  KShapeOptions opts;
  opts.k = 3;  // k > n
  EXPECT_THROW(kshape(series, opts), util::PreconditionError);
  opts.k = 0;
  EXPECT_THROW(kshape(series, opts), util::PreconditionError);
  EXPECT_THROW(kshape({}, KShapeOptions{}), util::PreconditionError);
  EXPECT_THROW(kshape({{1.0, 2.0}, {1.0}}, KShapeOptions{.k = 1}),
               util::PreconditionError);
}

}  // namespace
}  // namespace appscope::ts
