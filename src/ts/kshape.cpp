#include "ts/kshape.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/eigen.hpp"
#include "la/matrix.hpp"
#include "la/vector_ops.hpp"
#include "ts/sbd.hpp"
#include "ts/series_batch.hpp"
#include "ts/znorm.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace appscope::ts {

/// Paparrizos & Gravano's centroid is the top eigenvector of M = Q S Q, with
/// S = AᵀA summing the aligned, z-normalized members (the rows of A) and
/// Q = I - (1/n)·1·1ᵀ. With B = A Q (each row minus its mean), M = BᵀB,
/// which shares its nonzero spectrum with the m×m Gram matrix G = B Bᵀ:
/// G u = λ u gives BᵀB (Bᵀu) = λ (Bᵀu). So the centroid is Bᵀu for G's top
/// eigenvector u: an exact m×m eigenproblem (m = cluster size, at most the
/// series count) where M is n×n (n = series length, 168 for a week). An
/// all-zero B (constant members) gives an all-zero centroid, which the
/// assignment step skips.
std::vector<double> shape_extract(const SeriesBatch& data,
                                  const std::vector<std::size_t>& member_idx,
                                  const SeriesBatch& centroids, std::size_t c,
                                  SbdScratch& scratch) {
  APPSCOPE_REQUIRE(!member_idx.empty(), "shape_extract: no members");
  APPSCOPE_REQUIRE(data.length() >= 2, "shape_extract: series too short");
  APPSCOPE_REQUIRE(centroids.length() == data.length(),
                   "shape_extract: centroid length differs from the members'");
  APPSCOPE_REQUIRE(c < centroids.size(),
                   "shape_extract: centroid out of range");
  const std::size_t m = member_idx.size();
  const std::size_t n = data.length();
  const bool have_reference = centroids.norm(c) > 0.0;
  la::Matrix b(m, n);
  std::vector<double> aligned;  // reused across members
  for (std::size_t mi = 0; mi < m; ++mi) {
    APPSCOPE_REQUIRE(member_idx[mi] < data.size(),
                     "shape_extract: member out of range");
    const std::span<const double> member = data.series(member_idx[mi]);
    if (have_reference) {
      const SbdResult r = sbd_pair(centroids, c, data, member_idx[mi], scratch);
      shift_series_into(member, r.shift, aligned);
    } else {
      aligned.assign(member.begin(), member.end());
    }
    znormalize_inplace(aligned);
    const double mean = la::mean(aligned);
    const std::span<double> row = b.row(mi);
    for (std::size_t t = 0; t < n; ++t) row[t] = aligned[t] - mean;
  }

  std::vector<double> u{1.0};
  if (m > 1) {
    la::Matrix gram(m, m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = i; j < m; ++j) {
        gram(i, j) = gram(j, i) = la::dot(b.row(i), b.row(j));
      }
    }
    const la::EigenDecomposition eig = la::jacobi_eigen(gram);
    const std::span<const double> top = eig.vectors.row(0);
    u.assign(top.begin(), top.end());
  }
  std::vector<double> centroid(n, 0.0);
  for (std::size_t mi = 0; mi < m; ++mi) la::axpy(u[mi], b.row(mi), centroid);

  // Eigenvectors have arbitrary sign: pick the orientation closer to the
  // cluster members (compare squared distance to the first member).
  double dist_pos = 0.0;
  double dist_neg = 0.0;
  const std::vector<double> zprobe = znormalize(data.series(member_idx.front()));
  for (std::size_t i = 0; i < n; ++i) {
    const double dp = zprobe[i] - centroid[i];
    const double dn = zprobe[i] + centroid[i];
    dist_pos += dp * dp;
    dist_neg += dn * dn;
  }
  if (dist_neg < dist_pos) {
    for (double& v : centroid) v = -v;
  }
  znormalize_inplace(centroid);
  return centroid;
}

KShapeResult kshape(const std::vector<std::vector<double>>& series,
                    const KShapeOptions& opts) {
  APPSCOPE_REQUIRE(!series.empty(), "kshape: no series");
  APPSCOPE_REQUIRE(opts.k >= 1 && opts.k <= series.size(),
                   "kshape: k must be in [1, #series]");
  const std::size_t n = series.front().size();
  APPSCOPE_REQUIRE(n >= 2, "kshape: series must have >= 2 samples");
  for (const auto& s : series) {
    APPSCOPE_REQUIRE(s.size() == n, "kshape: all series must have equal length");
  }
  if (!opts.z_normalize_input) return kshape(SeriesBatch(series), opts);
  std::vector<std::vector<double>> data;
  data.reserve(series.size());
  for (const auto& s : series) {
    data.push_back(znormalize(std::span<const double>(s)));
  }
  return kshape(SeriesBatch(data), opts);
}

KShapeResult kshape(const SeriesBatch& data, const KShapeOptions& opts) {
  util::StageTimer timer("ts.kshape");
  timer.add_items(data.size());
  APPSCOPE_REQUIRE(opts.k >= 1 && opts.k <= data.size(),
                   "kshape: k must be in [1, #series]");
  const std::size_t n = data.length();
  APPSCOPE_REQUIRE(n >= 2, "kshape: series must have >= 2 samples");

  // Member spectra come cached in `data` and are reused by every
  // assignment and refinement across all iterations; centroid rows refresh
  // via set_series as centroids change.
  SeriesBatch centroid_batch(opts.k, n);

  util::Rng rng(opts.seed);
  KShapeResult result;
  result.assignments.resize(data.size());
  for (auto& a : result.assignments) {
    a = static_cast<std::size_t>(rng.uniform_index(opts.k));
  }
  // Guarantee every cluster starts non-empty (place one distinct series in
  // each cluster deterministically).
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t c = 0; c < opts.k; ++c) result.assignments[order[c]] = c;

  result.centroids.assign(opts.k, std::vector<double>(n, 0.0));

  std::vector<std::size_t> prev_assignments;
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Refinement: extract a shape per non-empty cluster. Clusters are
    // independent of each other, so they refine in parallel (each touching
    // only its own centroid-batch row).
    std::vector<std::vector<std::size_t>> member_idx(opts.k);
    for (std::size_t i = 0; i < data.size(); ++i) {
      member_idx[result.assignments[i]].push_back(i);
    }
    {
      const util::ScopedSpan refine_span("ts.kshape.refine");
      util::parallel_for(0, opts.k, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          if (member_idx[c].empty()) continue;  // re-seeded after assignment
          result.centroids[c] = shape_extract(
              data, member_idx[c], centroid_batch, c, sbd_scratch());
          centroid_batch.set_series(c, result.centroids[c]);
        }
      });
    }

    // Assignment: nearest centroid by SBD. Each series' N × k distance scan
    // is independent; the inertia fold stays serial (in series order) so the
    // sum is bitwise identical at any thread count.
    prev_assignments = result.assignments;
    std::vector<double> best_dist(data.size(), 0.0);
    constexpr std::size_t kSeriesPerShard = 16;
    util::parallel_for(
        0, data.size(), kSeriesPerShard, [&](std::size_t lo, std::size_t hi) {
          SbdScratch& scratch = sbd_scratch();
          for (std::size_t i = lo; i < hi; ++i) {
            double best = std::numeric_limits<double>::infinity();
            std::size_t best_c = prev_assignments[i];
            for (std::size_t c = 0; c < opts.k; ++c) {
              if (centroid_batch.norm(c) == 0.0) continue;
              const double d =
                  sbd_pair_distance(centroid_batch, c, data, i, scratch);
              if (d < best) {
                best = d;
                best_c = c;
              }
            }
            if (best == std::numeric_limits<double>::infinity()) {
              // Every centroid is all zero (all members constant): the
              // series stays put, at the kernel's SBD 1 from a zero shape.
              best =
                  sbd_pair_distance(centroid_batch, best_c, data, i, scratch);
            }
            result.assignments[i] = best_c;
            best_dist[i] = best;
          }
        });
    result.inertia = 0.0;
    for (const double d : best_dist) result.inertia += d;

    // Re-seed empty clusters with the series farthest from its centroid.
    for (std::size_t c = 0; c < opts.k; ++c) {
      bool empty = true;
      for (const std::size_t a : result.assignments) {
        if (a == c) {
          empty = false;
          break;
        }
      }
      if (!empty) continue;
      double worst = -1.0;
      std::size_t worst_i = 0;
      SbdScratch& scratch = sbd_scratch();
      for (std::size_t i = 0; i < data.size(); ++i) {
        const auto owner = result.assignments[i];
        if (centroid_batch.norm(owner) == 0.0) continue;
        const double d =
            sbd_pair_distance(centroid_batch, owner, data, i, scratch);
        if (d > worst) {
          worst = d;
          worst_i = i;
        }
      }
      result.assignments[worst_i] = c;
      const std::span<const double> seed = data.series(worst_i);
      result.centroids[c].assign(seed.begin(), seed.end());
      // Keep the centroid batch in sync immediately: a later empty cluster
      // in this same loop may measure distances against cluster c.
      centroid_batch.set_series(c, seed);
    }

    if (result.assignments == prev_assignments) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace appscope::ts
