#include "la/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>

#include "util/error.hpp"

namespace appscope::la {
namespace {

/// rows x cols matrix from row-major values.
Matrix from_rows(std::size_t rows, std::size_t cols,
                 std::initializer_list<double> values) {
  Matrix m(rows, cols);
  std::copy(values.begin(), values.end(), m.data().begin());
  return m;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, Identity) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
  EXPECT_TRUE(id.is_symmetric());
}

TEST(Matrix, MultiplyVector) {
  const Matrix a = from_rows(2, 2, {1, 2, 3, 4});
  const auto y = a.multiply(std::vector<double>{1.0, 1.0});
  EXPECT_EQ(y, (std::vector<double>{3.0, 7.0}));
  EXPECT_THROW(a.multiply(std::vector<double>{1.0}), util::PreconditionError);
}

TEST(Matrix, SymmetryCheck) {
  Matrix m = from_rows(2, 2, {1, 2, 2, 1});
  EXPECT_TRUE(m.is_symmetric());
  m(0, 1) = 3.0;
  EXPECT_FALSE(m.is_symmetric());
  EXPECT_FALSE(Matrix(2, 3).is_symmetric());
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix m = from_rows(1, 2, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

}  // namespace
}  // namespace appscope::la
