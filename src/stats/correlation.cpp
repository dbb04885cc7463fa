#include "stats/correlation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace appscope::stats {

double covariance(std::span<const double> x, std::span<const double> y) {
  APPSCOPE_REQUIRE(x.size() == y.size(), "covariance: length mismatch");
  APPSCOPE_REQUIRE(!x.empty(), "covariance: empty input");
  const double mx = mean(x);
  const double my = mean(y);
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += (x[i] - mx) * (y[i] - my);
  return acc / static_cast<double>(x.size());
}

double pearson(std::span<const double> x, std::span<const double> y) {
  APPSCOPE_REQUIRE(x.size() == y.size(), "pearson: length mismatch");
  APPSCOPE_REQUIRE(x.size() >= 2, "pearson: needs >= 2 samples");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return std::clamp(sxy / std::sqrt(sxx * syy), -1.0, 1.0);
}

double pearson_r2(std::span<const double> x, std::span<const double> y) {
  const double r = pearson(x, y);
  return r * r;
}

namespace {
/// Average ranks with ties sharing the mean rank (1-based).
std::vector<double> average_ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&xs](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}
}  // namespace

double spearman(std::span<const double> x, std::span<const double> y) {
  APPSCOPE_REQUIRE(x.size() == y.size(), "spearman: length mismatch");
  APPSCOPE_REQUIRE(x.size() >= 2, "spearman: needs >= 2 samples");
  const std::vector<double> rx = average_ranks(x);
  const std::vector<double> ry = average_ranks(y);
  return pearson(rx, ry);
}

la::Matrix pairwise_r2(const std::vector<std::vector<double>>& vectors) {
  APPSCOPE_REQUIRE(!vectors.empty(), "pairwise_r2: no vectors");
  const std::size_t len = vectors.front().size();
  for (const auto& v : vectors) {
    APPSCOPE_REQUIRE(v.size() == len, "pairwise_r2: ragged vectors");
  }
  const std::size_t n = vectors.size();
  util::StageTimer timer("stats.pairwise_r2");
  timer.add_items(n * n);  // matrix entries filled (mirrored pairs included)
  // Row-sharded fill over the global pool: every (i, j) entry is an
  // independent pearson_r2, so the matrix is bitwise identical at any
  // thread count. Shards own disjoint upper-triangle rows (and the
  // mirrored cells below the diagonal), so writes never overlap.
  la::Matrix m(n, n);
  constexpr std::size_t kRowsPerShard = 2;
  util::parallel_for(0, n, kRowsPerShard, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double r2 = pearson_r2(vectors[i], vectors[j]);
        m(i, j) = r2;
        m(j, i) = r2;
      }
    }
  });
  return m;
}

std::vector<double> upper_triangle(const la::Matrix& m) {
  APPSCOPE_REQUIRE(m.rows() == m.cols(), "upper_triangle: matrix must be square");
  std::vector<double> out;
  out.reserve(m.rows() * (m.rows() - 1) / 2);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = i + 1; j < m.cols(); ++j) out.push_back(m(i, j));
  }
  return out;
}

double mean_off_diagonal(const la::Matrix& m) {
  const std::vector<double> tri = upper_triangle(m);
  APPSCOPE_REQUIRE(!tri.empty(), "mean_off_diagonal: matrix too small");
  return mean(tri);
}

}  // namespace appscope::stats
