#include "la/matrix.hpp"

#include <cmath>

#include "util/error.hpp"

namespace appscope::la {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::multiply(std::span<const double> x) const {
  APPSCOPE_REQUIRE(x.size() == cols_, "Matrix::multiply: length mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    const auto r = row(i);
    for (std::size_t j = 0; j < cols_; ++j) acc += r[j] * x[j];
    y[i] = acc;
  }
  return y;
}

bool Matrix::is_symmetric(double tol) const noexcept {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      if (std::abs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    }
  }
  return true;
}

double Matrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (const double v : data_) acc += v * v;
  return std::sqrt(acc);
}

}  // namespace appscope::la
