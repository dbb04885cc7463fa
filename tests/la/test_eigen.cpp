#include "la/eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "la/vector_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::la {
namespace {

/// n x n matrix from row-major values.
Matrix square(std::size_t n, std::initializer_list<double> values) {
  Matrix m(n, n);
  std::copy(values.begin(), values.end(), m.data().begin());
  return m;
}

Matrix diag2(double a, double b) { return square(2, {a, 0.0, 0.0, b}); }

TEST(JacobiEigen, DiagonalMatrix) {
  const EigenDecomposition d = jacobi_eigen(diag2(2.0, 7.0));
  ASSERT_EQ(d.values.size(), 2u);
  EXPECT_NEAR(d.values[0], 7.0, 1e-10);
  EXPECT_NEAR(d.values[1], 2.0, 1e-10);
}

TEST(JacobiEigen, KnownSpectrum) {
  const Matrix m = square(3, {2, 1, 0, 1, 2, 1, 0, 1, 2});
  const EigenDecomposition d = jacobi_eigen(m);
  // Eigenvalues of this tridiagonal matrix: 2 + √2, 2, 2 - √2.
  EXPECT_NEAR(d.values[0], 2.0 + std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(d.values[1], 2.0, 1e-9);
  EXPECT_NEAR(d.values[2], 2.0 - std::sqrt(2.0), 1e-9);
}

TEST(JacobiEigen, EigenvectorsAreOrthonormal) {
  util::Rng rng(12);
  const std::size_t n = 10;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) m(i, j) = m(j, i) = rng.normal();
  }
  const EigenDecomposition d = jacobi_eigen(m);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const double expected = a == b ? 1.0 : 0.0;
      EXPECT_NEAR(dot(d.vectors.row(a), d.vectors.row(b)), expected, 1e-8);
    }
  }
}

TEST(JacobiEigen, TraceEqualsEigenvalueSum) {
  util::Rng rng(13);
  const std::size_t n = 8;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) m(i, j) = m(j, i) = rng.normal();
  }
  const EigenDecomposition d = jacobi_eigen(m);
  double sum = 0.0;
  for (const double v : d.values) sum += v;
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += m(i, i);
  EXPECT_NEAR(sum, trace, 1e-8);
}

TEST(JacobiEigen, DiagonalDominantEigenpair) {
  const EigenDecomposition d = jacobi_eigen(diag2(5.0, 2.0));
  EXPECT_NEAR(d.values[0], 5.0, 1e-12);
  EXPECT_NEAR(std::abs(d.vectors(0, 0)), 1.0, 1e-12);
  EXPECT_NEAR(d.vectors(0, 1), 0.0, 1e-12);
}

TEST(JacobiEigen, SymmetricMatrixKnownSpectrum) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1; top eigenvector is (1,1)/√2.
  const EigenDecomposition d = jacobi_eigen(square(2, {2, 1, 1, 2}));
  EXPECT_NEAR(d.values[0], 3.0, 1e-12);
  EXPECT_NEAR(std::abs(d.vectors(0, 0)), std::abs(d.vectors(0, 1)), 1e-12);
  EXPECT_NEAR(norm2(d.vectors.row(0)), 1.0, 1e-12);
}

TEST(JacobiEigen, ReturnsLargestAlgebraicNotLargestMagnitude) {
  // Eigenvalues -10 and 1; shape extraction needs +1 (Rayleigh max).
  const EigenDecomposition d = jacobi_eigen(diag2(-10.0, 1.0));
  EXPECT_EQ(d.values[0], 1.0);
  EXPECT_EQ(d.values[1], -10.0);
}

TEST(JacobiEigen, RejectsNonSymmetricAndEmpty) {
  EXPECT_THROW(jacobi_eigen(square(2, {1, 2, 3, 4})),
               util::PreconditionError);
  EXPECT_THROW(jacobi_eigen(Matrix(2, 3)), util::PreconditionError);
  EXPECT_THROW(jacobi_eigen(Matrix()), util::PreconditionError);
}

TEST(JacobiEigen, EigenEquationHoldsOnRandomSymmetric) {
  util::Rng rng(11);
  const std::size_t n = 24;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      m(i, j) = m(j, i) = rng.uniform(-1.0, 1.0);
    }
  }
  const EigenDecomposition d = jacobi_eigen(m);
  for (std::size_t r = 0; r < n; ++r) {
    const auto mv = m.multiply(d.vectors.row(r));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(mv[i], d.values[r] * d.vectors(r, i), 1e-9) << r << "," << i;
    }
  }
}

}  // namespace
}  // namespace appscope::la
