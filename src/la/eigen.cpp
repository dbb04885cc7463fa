#include "la/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace appscope::la {

EigenDecomposition jacobi_eigen(const Matrix& m, double tolerance,
                                std::size_t max_sweeps) {
  APPSCOPE_REQUIRE(!m.empty(), "jacobi_eigen: empty matrix");
  APPSCOPE_REQUIRE(m.rows() == m.cols(), "jacobi_eigen: matrix must be square");
  APPSCOPE_REQUIRE(m.is_symmetric(1e-9 * (1.0 + m.frobenius_norm())),
                   "jacobi_eigen: matrix must be symmetric");

  const std::size_t n = m.rows();
  Matrix a = m;
  Matrix v = Matrix::identity(n);

  auto off_diag_norm = [&a, n] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) acc += a(i, j) * a(i, j);
    }
    return std::sqrt(2.0 * acc);
  };

  const double scale_ref = 1.0 + a.frobenius_norm();
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diag_norm() <= tolerance * scale_ref) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= tolerance * scale_ref / static_cast<double>(n)) {
          continue;
        }
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the rotation G(p, q, theta) on both sides: A <- G^T A G.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&a](std::size_t i, std::size_t j) { return a(i, i) > a(j, j); });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    out.values[r] = a(order[r], order[r]);
    for (std::size_t k = 0; k < n; ++k) out.vectors(r, k) = v(k, order[r]);
  }
  return out;
}

}  // namespace appscope::la
