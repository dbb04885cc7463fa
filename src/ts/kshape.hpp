// appscope/ts/kshape.hpp
//
// k-Shape time-series clustering (Paparrizos & Gravano, SIGMOD 2015), the
// algorithm the paper uses to attempt grouping the 20 services by the shape
// of their weekly traffic series (Fig. 5).
//
// k-Shape alternates:
//   assignment  — each series joins the centroid with the smallest SBD;
//   refinement  — each centroid becomes the "shape extract" of its members:
//                 members are cross-correlation-aligned to the old centroid,
//                 and the new centroid is the dominant eigenvector of
//                 M = Q S Q, with S = Σ aligned xᵢ xᵢᵀ and Q = I - (1/n)·1.
//                 M = BᵀB for B the m×n matrix of mean-centred aligned
//                 members, so the eigenvector is Bᵀu for u the top
//                 eigenvector of the m×m Gram matrix B Bᵀ (m = cluster size),
//                 solved exactly by la::jacobi_eigen.
//
// Series spectra are cached in ts::SeriesBatch: member spectra once per
// batch (one run, or a whole k sweep through the batch overload), centroid
// spectra once per refinement.
#pragma once

#include <cstdint>
#include <vector>

#include "ts/series_batch.hpp"

namespace appscope::ts {

struct KShapeOptions {
  std::size_t k = 2;
  std::size_t max_iterations = 100;
  /// Seed for the deterministic random initial assignment.
  std::uint64_t seed = 7;
  /// z-normalize every series before clustering (the canonical setting).
  bool z_normalize_input = true;
};

struct KShapeResult {
  /// assignments[i] in [0, k) is the cluster of series i.
  std::vector<std::size_t> assignments;
  /// k centroids, each z-normalized, same length as the input series.
  std::vector<std::vector<double>> centroids;
  /// Sum over series of SBD(series, its centroid).
  double inertia = 0.0;
  std::size_t iterations = 0;
  bool converged = false;

  std::size_t cluster_count() const noexcept { return centroids.size(); }
};

/// Clusters `series` (all equal length >= 2) into opts.k groups.
/// Requires 1 <= k <= series.size(). Z-normalizes the series when
/// opts.z_normalize_input, then runs the SeriesBatch overload on them.
KShapeResult kshape(const std::vector<std::vector<double>>& series,
                    const KShapeOptions& opts);

/// Clusters the rows of `data` as given (opts.z_normalize_input is not
/// read), so a caller clustering the same series for many k builds their
/// batch once. Requires 1 <= k <= data.size() and data.length() >= 2.
KShapeResult kshape(const SeriesBatch& data, const KShapeOptions& opts);

/// Shape extraction for a single cluster, the refinement step of kshape():
/// returns the z-normalized dominant eigenvector of QSQ built from the rows
/// `member_idx` of `data` (at least one) aligned to row `c` of `centroids`,
/// computed as Bᵀu from the top eigenvector u of the members' m×m Gram
/// matrix (see the file comment). Members all constant give an all-zero
/// centroid. If that centroid row is all zero, members are used unaligned.
/// Requires data.length() >= 2, centroids of the same length, c <
/// centroids.size() and every member index < data.size().
std::vector<double> shape_extract(const SeriesBatch& data,
                                  const std::vector<std::size_t>& member_idx,
                                  const SeriesBatch& centroids, std::size_t c,
                                  SbdScratch& scratch);

}  // namespace appscope::ts
