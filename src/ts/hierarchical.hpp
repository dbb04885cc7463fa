// appscope/ts/hierarchical.hpp
//
// Agglomerative hierarchical clustering over an arbitrary distance
// function. Complements k-Shape in the Fig. 5 analysis: the paper backs its
// "no consistent grouping" conclusion with a manual examination of cluster
// structure; a dendrogram makes that examination programmatic — if a clean
// grouping existed, cutting the tree would reveal a large merge-distance
// gap, and it does not.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ts/distance_matrix.hpp"

namespace appscope::ts {

enum class Linkage : std::uint8_t {
  kSingle = 0,    // min pairwise distance between clusters
  kComplete = 1,  // max pairwise distance
  kAverage = 2,   // mean pairwise distance (UPGMA)
};

/// One agglomeration step: clusters `left` and `right` merged at `distance`
/// into a new cluster with id `parent`.
struct MergeStep {
  std::size_t left = 0;
  std::size_t right = 0;
  std::size_t parent = 0;
  double distance = 0.0;
};

struct Dendrogram {
  /// n-1 merges, ordered by increasing step; leaf ids are [0, n), internal
  /// node ids continue from n.
  std::vector<MergeStep> merges;
  std::size_t leaf_count = 0;

  /// Largest gap between consecutive merge distances; a clean cluster
  /// structure shows a dominant gap, an unstructured set does not.
  /// Returns (gap, merge index after which the gap occurs).
  std::pair<double, std::size_t> largest_merge_gap() const;
};

/// Builds the dendrogram from precomputed pairwise distances (symmetric,
/// non-negative, zero diagonal). O(n^3) agglomeration with the naive
/// Lance-Williams update — fine for the 20-series use case and beyond
/// (hundreds of items). Callers that already paid for an SBD matrix
/// (ts::sbd_distance_matrix over a SeriesBatch) pass it here directly
/// instead of recomputing every pair through a distance functor.
Dendrogram hierarchical_cluster(const DistanceMatrix& distances,
                                Linkage linkage = Linkage::kAverage);

}  // namespace appscope::ts
