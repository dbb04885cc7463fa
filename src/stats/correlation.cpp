#include "stats/correlation.hpp"

#include <algorithm>
#include <cmath>

#include "la/vector_ops.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace appscope::stats {

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

la::Matrix pairwise_r2(const std::vector<std::vector<double>>& vectors) {
  APPSCOPE_REQUIRE(!vectors.empty(), "pairwise_r2: no vectors");
  const std::size_t len = vectors.front().size();
  for (const auto& v : vectors) {
    APPSCOPE_REQUIRE(v.size() == len, "pairwise_r2: ragged vectors");
  }
  APPSCOPE_REQUIRE(len >= 2, "pairwise_r2: needs >= 2 samples");
  const std::size_t n = vectors.size();
  util::StageTimer timer("stats.pairwise_r2");
  timer.add_items(n * n);  // matrix entries filled (mirrored pairs included)
  // Each vector is centred once, as pearson centres it per call: the same
  // mean, the same deviations d = v - mean and the same in-order sum of
  // d². A pair then costs one in-order dot product, which adds exactly
  // pearson's sxy terms, so every entry keeps pearson_r2's bits.
  la::Matrix centred(n, len);
  std::vector<double> sum_sq(n);
  constexpr std::size_t kRowsPerShard = 2;
  util::parallel_for(0, n, kRowsPerShard, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double mu = mean(vectors[i]);
      const std::span<double> d = centred.row(i);
      double ss = 0.0;
      for (std::size_t t = 0; t < len; ++t) {
        d[t] = vectors[i][t] - mu;
        ss += d[t] * d[t];
      }
      sum_sq[i] = ss;
    }
  });
  // Row-sharded fill over the global pool: every (i, j) entry is
  // independent, so the matrix is bitwise identical at any thread count.
  // Shards own disjoint upper-triangle rows (and the mirrored cells below
  // the diagonal), so writes never overlap.
  const auto r2_of = [&](std::size_t i, std::size_t j) {
    // pearson's guard: a constant vector gives 0, a NaN one passes to NaN.
    if (sum_sq[i] <= 0.0 || sum_sq[j] <= 0.0) return 0.0;
    const double sxy = la::dot(centred.row(i), centred.row(j));
    const double r =
        std::clamp(sxy / std::sqrt(sum_sq[i] * sum_sq[j]), -1.0, 1.0);
    return r * r;
  };
  la::Matrix m(n, n);
  util::parallel_for(0, n, kRowsPerShard, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double r2 = r2_of(i, j);
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
