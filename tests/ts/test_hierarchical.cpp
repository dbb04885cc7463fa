#include "ts/hierarchical.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "la/vector_ops.hpp"
#include "ts/cluster_quality.hpp"
#include "ts/sbd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::ts {
namespace {

const DistanceFn kEuclidean = [](std::span<const double> a,
                                 std::span<const double> b) {
  return la::distance(a, b);
};

/// The pairwise distances of `items` under `dist`.
DistanceMatrix pairwise(const std::vector<std::vector<double>>& items,
                        const DistanceFn& dist) {
  DistanceMatrix d(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      d(i, j) = dist(items[i], items[j]);
    }
  }
  d.symmetrize_upper();
  return d;
}

/// Leaf assignments to the two sides of the last merge (0 = left).
std::vector<std::size_t> last_merge_sides(const Dendrogram& d) {
  std::vector<std::size_t> side(d.leaf_count + d.merges.size(), 0);
  side[d.merges.back().right] = 1;
  for (auto m = d.merges.rbegin() + 1; m != d.merges.rend(); ++m) {
    side[m->left] = side[m->right] = side[m->parent];
  }
  side.resize(d.leaf_count);
  return side;
}

/// Two tight 1-D clusters at 0 and 100.
std::vector<std::vector<double>> two_blobs() {
  return {{0.0}, {1.0}, {2.0}, {100.0}, {101.0}, {102.0}};
}

TEST(Hierarchical, MergeCountAndIds) {
  const Dendrogram d = hierarchical_cluster(pairwise(two_blobs(), kEuclidean));
  EXPECT_EQ(d.leaf_count, 6u);
  ASSERT_EQ(d.merges.size(), 5u);
  for (std::size_t i = 0; i < d.merges.size(); ++i) {
    EXPECT_EQ(d.merges[i].parent, 6 + i);
  }
}

TEST(Hierarchical, MergeDistancesNonDecreasing) {
  for (const Linkage linkage :
       {Linkage::kSingle, Linkage::kComplete, Linkage::kAverage}) {
    const Dendrogram d =
        hierarchical_cluster(pairwise(two_blobs(), kEuclidean), linkage);
    for (std::size_t i = 1; i < d.merges.size(); ++i) {
      EXPECT_GE(d.merges[i].distance, d.merges[i - 1].distance - 1e-12)
          << "linkage " << static_cast<int>(linkage);
    }
  }
}

TEST(Hierarchical, CutToTwoRecoversBlobs) {
  const Dendrogram d = hierarchical_cluster(pairwise(two_blobs(), kEuclidean));
  const auto assignments = last_merge_sides(d);
  ASSERT_EQ(assignments.size(), 6u);
  EXPECT_EQ(assignments[0], assignments[1]);
  EXPECT_EQ(assignments[1], assignments[2]);
  EXPECT_EQ(assignments[3], assignments[4]);
  EXPECT_EQ(assignments[4], assignments[5]);
  EXPECT_NE(assignments[0], assignments[3]);
}

TEST(Hierarchical, LargestGapRevealsCleanStructure) {
  const Dendrogram d = hierarchical_cluster(pairwise(two_blobs(), kEuclidean));
  const auto [gap, index] = d.largest_merge_gap();
  // The last merge bridges the blobs: gap ~96 dwarfs the intra-blob merges.
  EXPECT_GT(gap, 90.0);
  EXPECT_EQ(index, d.merges.size() - 2);
}

TEST(Hierarchical, NoDominantGapOnUnstructuredData) {
  util::Rng rng(9);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 16; ++i) points.push_back({rng.uniform(0.0, 10.0)});
  const Dendrogram d = hierarchical_cluster(pairwise(points, kEuclidean));
  const auto [gap, index] = d.largest_merge_gap();
  // Gap exists but is a small fraction of the final merge distance.
  EXPECT_LT(gap, d.merges.back().distance * 0.8);
  (void)index;
}

TEST(Hierarchical, WorksWithSbdOnTimeSeries) {
  util::Rng rng(4);
  std::vector<std::vector<double>> series;
  for (int i = 0; i < 5; ++i) {
    std::vector<double> v(48);
    for (std::size_t h = 0; h < v.size(); ++h) {
      v[h] = std::sin(2.0 * M_PI * static_cast<double>(h) / 24.0) +
             0.05 * rng.normal();
    }
    series.push_back(std::move(v));
  }
  for (int i = 0; i < 5; ++i) {
    std::vector<double> v(48, 0.0);
    v[10 + i] = 1.0;  // pulse family (shift-invariant under SBD)
    series.push_back(std::move(v));
  }
  const DistanceFn sbd_dist = [](std::span<const double> a,
                                 std::span<const double> b) {
    return sbd_distance(a, b);
  };
  const Dendrogram d = hierarchical_cluster(pairwise(series, sbd_dist));
  const auto assignments = last_merge_sides(d);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_EQ(assignments[i], assignments[0]);
  for (std::size_t i = 6; i < 10; ++i) EXPECT_EQ(assignments[i], assignments[5]);
  EXPECT_NE(assignments[0], assignments[5]);
}

TEST(Hierarchical, SingleItem) {
  const Dendrogram d = hierarchical_cluster(DistanceMatrix(1));
  EXPECT_EQ(d.leaf_count, 1u);
  EXPECT_TRUE(d.merges.empty());
  EXPECT_THROW(d.largest_merge_gap(), util::PreconditionError);
}

TEST(Hierarchical, EmptyInputThrows) {
  EXPECT_THROW(hierarchical_cluster(DistanceMatrix{}), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::ts
