#include "ts/cluster_quality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ts/series_batch.hpp"
#include "util/error.hpp"

namespace appscope::ts {

namespace {

std::vector<std::vector<std::size_t>> group_members(
    const std::vector<std::size_t>& assignments, std::size_t k) {
  std::vector<std::vector<std::size_t>> groups(k);
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    APPSCOPE_REQUIRE(assignments[i] < k, "cluster_quality: assignment out of range");
    groups[assignments[i]].push_back(i);
  }
  return groups;
}

std::size_t max_cluster_id(const std::vector<std::size_t>& assignments) {
  APPSCOPE_REQUIRE(!assignments.empty(), "cluster_quality: empty assignment");
  return *std::max_element(assignments.begin(), assignments.end()) + 1;
}

std::size_t count_nonempty(const std::vector<std::vector<std::size_t>>& groups) {
  std::size_t n = 0;
  for (const auto& g : groups) {
    if (!g.empty()) ++n;
  }
  return n;
}

/// Silhouette over point indices with distances supplied by `pd(i, j)`.
/// Shared by the functor and precomputed-matrix overloads so both produce
/// identical results for consistent inputs.
template <typename PointDist>
double silhouette_impl(std::size_t n_points,
                       const std::vector<std::size_t>& assignments,
                       PointDist&& pd) {
  APPSCOPE_REQUIRE(n_points == assignments.size(),
                   "silhouette: data/assignment size mismatch");
  const std::size_t k = max_cluster_id(assignments);
  const auto groups = group_members(assignments, k);
  APPSCOPE_REQUIRE(count_nonempty(groups) >= 2,
                   "silhouette: needs >= 2 non-empty clusters");

  double total = 0.0;
  for (std::size_t i = 0; i < n_points; ++i) {
    const std::size_t own = assignments[i];
    if (groups[own].size() <= 1) continue;  // silhouette of singleton := 0

    // a(i): mean distance to own cluster (excluding self).
    double a = 0.0;
    for (const std::size_t j : groups[own]) {
      if (j != i) a += pd(i, j);
    }
    a /= static_cast<double>(groups[own].size() - 1);

    // b(i): smallest mean distance to another non-empty cluster.
    double b = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      if (c == own || groups[c].empty()) continue;
      double m = 0.0;
      for (const std::size_t j : groups[c]) m += pd(i, j);
      m /= static_cast<double>(groups[c].size());
      b = std::min(b, m);
    }

    const double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
  }
  return total / static_cast<double>(n_points);
}

template <typename PointDist>
double dunn_impl(std::size_t n_points,
                 const std::vector<std::size_t>& assignments, PointDist&& pd) {
  APPSCOPE_REQUIRE(n_points == assignments.size(),
                   "dunn_index: data/assignment size mismatch");
  const std::size_t k = max_cluster_id(assignments);
  const auto groups = group_members(assignments, k);
  APPSCOPE_REQUIRE(count_nonempty(groups) >= 2,
                   "dunn_index: needs >= 2 non-empty clusters");

  // Max intra-cluster diameter.
  double max_diameter = 0.0;
  for (const auto& g : groups) {
    for (std::size_t a = 0; a < g.size(); ++a) {
      for (std::size_t b = a + 1; b < g.size(); ++b) {
        max_diameter = std::max(max_diameter, pd(g[a], g[b]));
      }
    }
  }

  // Min inter-cluster single-linkage distance.
  double min_separation = std::numeric_limits<double>::infinity();
  for (std::size_t c1 = 0; c1 < k; ++c1) {
    if (groups[c1].empty()) continue;
    for (std::size_t c2 = c1 + 1; c2 < k; ++c2) {
      if (groups[c2].empty()) continue;
      for (const std::size_t a : groups[c1]) {
        for (const std::size_t b : groups[c2]) {
          min_separation = std::min(min_separation, pd(a, b));
        }
      }
    }
  }

  if (max_diameter <= 0.0) {
    // All clusters are single points or duplicates: conventionally infinite
    // separation; report a large sentinel instead of dividing by zero.
    return std::numeric_limits<double>::infinity();
  }
  return min_separation / max_diameter;
}

}  // namespace

double silhouette(const std::vector<std::vector<double>>& data,
                  const std::vector<std::size_t>& assignments,
                  const DistanceFn& dist) {
  return silhouette_impl(data.size(), assignments,
                         [&](std::size_t i, std::size_t j) {
                           return dist(data[i], data[j]);
                         });
}

double silhouette(const DistanceMatrix& pairwise,
                  const std::vector<std::size_t>& assignments) {
  return silhouette_impl(pairwise.size(), assignments,
                         [&](std::size_t i, std::size_t j) {
                           return pairwise(i, j);
                         });
}

double dunn_index(const std::vector<std::vector<double>>& data,
                  const std::vector<std::size_t>& assignments,
                  const DistanceFn& dist) {
  return dunn_impl(data.size(), assignments,
                   [&](std::size_t i, std::size_t j) {
                     return dist(data[i], data[j]);
                   });
}

double dunn_index(const DistanceMatrix& pairwise,
                  const std::vector<std::size_t>& assignments) {
  return dunn_impl(pairwise.size(), assignments,
                   [&](std::size_t i, std::size_t j) {
                     return pairwise(i, j);
                   });
}

namespace {

/// Validates a clustering for DB/DB* over `n_points` points and groups its
/// members by cluster (one group per centroid).
std::vector<std::vector<std::size_t>> centroid_groups(
    std::size_t n_points, const ClusteringView& clustering) {
  APPSCOPE_REQUIRE(n_points == clustering.assignments.size(),
                   "davies_bouldin: data/assignment size mismatch");
  APPSCOPE_REQUIRE(!clustering.centroids.empty(),
                   "davies_bouldin: clustering has no centroids");
  for (const std::size_t a : clustering.assignments) {
    APPSCOPE_REQUIRE(a < clustering.centroids.size(),
                     "davies_bouldin: assignment exceeds centroid count");
  }
  return group_members(clustering.assignments, clustering.centroids.size());
}

/// Mean member-to-centroid distance per cluster (empty cluster -> 0), with
/// `md(i, c)` the distance from point i to centroid c.
template <typename MemberDist>
std::vector<double> cluster_scatter(
    const std::vector<std::vector<std::size_t>>& groups, MemberDist&& md) {
  std::vector<double> s(groups.size(), 0.0);
  for (std::size_t c = 0; c < groups.size(); ++c) {
    if (groups[c].empty()) continue;
    double acc = 0.0;
    for (const std::size_t i : groups[c]) acc += md(i, c);
    s[c] = acc / static_cast<double>(groups[c].size());
  }
  return s;
}

/// Davies-Bouldin over per-cluster scatter `s` and centroid separations
/// `sep(i, j)`, read only for distinct non-empty clusters. Shared by the
/// functor and cached-spectra overloads, like silhouette_impl/dunn_impl.
template <typename Sep>
double davies_bouldin_impl(const std::vector<std::vector<std::size_t>>& groups,
                           const std::vector<double>& s, Sep&& sep) {
  APPSCOPE_REQUIRE(count_nonempty(groups) >= 2,
                   "davies_bouldin: needs >= 2 non-empty clusters");
  const std::size_t k = groups.size();
  double total = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (groups[i].empty()) continue;
    double worst = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (j == i || groups[j].empty()) continue;
      const double d = sep(i, j);
      if (d <= 0.0) continue;  // coincident centroids carry no information
      worst = std::max(worst, (s[i] + s[j]) / d);
    }
    total += worst;
    ++used;
  }
  return total / static_cast<double>(used);
}

template <typename Sep>
double davies_bouldin_star_impl(
    const std::vector<std::vector<std::size_t>>& groups,
    const std::vector<double>& s, Sep&& sep) {
  APPSCOPE_REQUIRE(count_nonempty(groups) >= 2,
                   "davies_bouldin_star: needs >= 2 non-empty clusters");
  const std::size_t k = groups.size();
  double total = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (groups[i].empty()) continue;
    double max_sum = 0.0;
    double min_sep = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < k; ++j) {
      if (j == i || groups[j].empty()) continue;
      max_sum = std::max(max_sum, s[i] + s[j]);
      const double d = sep(i, j);
      if (d > 0.0) min_sep = std::min(min_sep, d);
    }
    if (std::isfinite(min_sep)) {
      total += max_sum / min_sep;
      ++used;
    }
  }
  APPSCOPE_REQUIRE(used > 0, "davies_bouldin_star: all centroids coincide");
  return total / static_cast<double>(used);
}

/// Scatter of each cluster around its centroid under a distance functor.
std::vector<double> functor_scatter(
    const std::vector<std::vector<double>>& data,
    const ClusteringView& clustering,
    const std::vector<std::vector<std::size_t>>& groups,
    const DistanceFn& dist) {
  return cluster_scatter(groups, [&](std::size_t i, std::size_t c) {
    return dist(data[i], clustering.centroids[c]);
  });
}

/// Centroid separation under a distance functor, as a sep(i, j) callable.
auto functor_separation(const ClusteringView& clustering,
                        const DistanceFn& dist) {
  return [&clustering, &dist](std::size_t i, std::size_t j) {
    return dist(clustering.centroids[i], clustering.centroids[j]);
  };
}

}  // namespace

double davies_bouldin(const std::vector<std::vector<double>>& data,
                      const ClusteringView& clustering, const DistanceFn& dist) {
  const auto groups = centroid_groups(data.size(), clustering);
  return davies_bouldin_impl(groups,
                             functor_scatter(data, clustering, groups, dist),
                             functor_separation(clustering, dist));
}

double davies_bouldin_star(const std::vector<std::vector<double>>& data,
                           const ClusteringView& clustering,
                           const DistanceFn& dist) {
  const auto groups = centroid_groups(data.size(), clustering);
  return davies_bouldin_star_impl(
      groups, functor_scatter(data, clustering, groups, dist),
      functor_separation(clustering, dist));
}

QualityIndices evaluate_quality(const std::vector<std::vector<double>>& data,
                                const ClusteringView& clustering,
                                const DistanceFn& dist) {
  QualityIndices q;
  q.davies_bouldin = davies_bouldin(data, clustering, dist);
  q.davies_bouldin_star = davies_bouldin_star(data, clustering, dist);
  q.dunn = dunn_index(data, clustering.assignments, dist);
  q.silhouette = silhouette(data, clustering.assignments, dist);
  return q;
}

QualityIndices evaluate_quality(const SeriesBatch& data,
                                const ClusteringView& clustering,
                                const DistanceMatrix& pairwise) {
  APPSCOPE_REQUIRE(pairwise.size() == data.size(),
                   "evaluate_quality: pairwise matrix size mismatch");
  const auto groups = centroid_groups(data.size(), clustering);
  const std::size_t k = groups.size();
  const SeriesBatch centroids(clustering.centroids);
  SbdScratch& scratch = sbd_scratch();
  // Every SBD keeps the functor overload's argument order (point, centroid)
  // and (centroid i, centroid j), so the values are bitwise the same; SBD is
  // symmetric only to round-off, hence ordered centroid pairs.
  const std::vector<double> scatter =
      cluster_scatter(groups, [&](std::size_t i, std::size_t c) {
        return sbd_pair_distance(data, i, centroids, c, scratch);
      });
  DistanceMatrix separation(k);
  for (std::size_t i = 0; i < k; ++i) {
    if (groups[i].empty()) continue;
    for (std::size_t j = 0; j < k; ++j) {
      if (j == i || groups[j].empty()) continue;
      separation(i, j) = sbd_pair_distance(centroids, i, centroids, j, scratch);
    }
  }
  const auto sep = [&](std::size_t i, std::size_t j) { return separation(i, j); };

  QualityIndices q;
  q.davies_bouldin = davies_bouldin_impl(groups, scatter, sep);
  q.davies_bouldin_star = davies_bouldin_star_impl(groups, scatter, sep);
  q.dunn = dunn_index(pairwise, clustering.assignments);
  q.silhouette = silhouette(pairwise, clustering.assignments);
  return q;
}

}  // namespace appscope::ts
