// appscope/ts/cluster_quality.hpp
//
// Internal clustering-quality indices used in Fig. 5 to rank cluster sets:
// Davies-Bouldin (DB), modified Davies-Bouldin (DB*, Kim & Ramakrishna 2005)
// — minimum is best — and Dunn, Silhouette — maximum is best.
//
// All indices are parameterized by a distance function so they apply to both
// SBD (k-Shape) and Euclidean (k-means baseline) geometries. The SBD sweep
// uses the cached-spectra overload of evaluate_quality instead, which gives
// the same bits from a ts::SeriesBatch and a precomputed pairwise matrix.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "ts/distance_matrix.hpp"

namespace appscope::ts {

class SeriesBatch;

using DistanceFn =
    std::function<double(std::span<const double>, std::span<const double>)>;

/// A clustering over `data` for quality evaluation: per-point assignments
/// plus the centroids the clusterer produced.
struct ClusteringView {
  std::vector<std::size_t> assignments;
  std::vector<std::vector<double>> centroids;
};

/// Mean silhouette over all points, in [-1, 1] (higher = better separation).
/// Points in singleton clusters contribute 0 (standard convention).
/// Requires >= 2 non-empty clusters.
double silhouette(const std::vector<std::vector<double>>& data,
                  const std::vector<std::size_t>& assignments,
                  const DistanceFn& dist);

/// Silhouette from precomputed pairwise point distances (e.g. an SBD matrix
/// from ts::sbd_distance_matrix). Identical result to the functor overload
/// when `pairwise(i, j) == dist(data[i], data[j])`.
double silhouette(const DistanceMatrix& pairwise,
                  const std::vector<std::size_t>& assignments);

/// Dunn index: min inter-cluster single-linkage distance divided by max
/// intra-cluster diameter (higher = better). Requires >= 2 non-empty
/// clusters and at least one cluster with >= 2 members.
double dunn_index(const std::vector<std::vector<double>>& data,
                  const std::vector<std::size_t>& assignments,
                  const DistanceFn& dist);

/// Dunn index from precomputed pairwise point distances.
double dunn_index(const DistanceMatrix& pairwise,
                  const std::vector<std::size_t>& assignments);

/// Davies-Bouldin: mean over clusters of max_j (S_i + S_j) / d(c_i, c_j),
/// with S_i the mean member-to-centroid distance (lower = better).
double davies_bouldin(const std::vector<std::vector<double>>& data,
                      const ClusteringView& clustering, const DistanceFn& dist);

/// Modified Davies-Bouldin DB*: mean over clusters of
/// [max_j (S_i + S_j)] / [min_j d(c_i, c_j)] (lower = better).
double davies_bouldin_star(const std::vector<std::vector<double>>& data,
                           const ClusteringView& clustering,
                           const DistanceFn& dist);

/// All four indices at once (shares the pairwise-distance work).
struct QualityIndices {
  double davies_bouldin = 0.0;
  double davies_bouldin_star = 0.0;
  double dunn = 0.0;
  double silhouette = 0.0;
};

QualityIndices evaluate_quality(const std::vector<std::vector<double>>& data,
                                const ClusteringView& clustering,
                                const DistanceFn& dist);

/// evaluate_quality under SBD, on cached spectra: the point-to-point
/// distances are read from `pairwise` (ts::sbd_distance_matrix(data)), and
/// DB/DB* share one SeriesBatch of the centroids, each member-to-centroid
/// SBD and each ordered centroid pair computed once. Bitwise identical to
/// the functor overload with ts::sbd_distance for DB and DB*, and to
/// dunn_index/silhouette over `pairwise` for the other two.
QualityIndices evaluate_quality(const SeriesBatch& data,
                                const ClusteringView& clustering,
                                const DistanceMatrix& pairwise);

}  // namespace appscope::ts
