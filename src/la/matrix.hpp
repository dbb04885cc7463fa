// appscope/la/matrix.hpp
//
// Dense row-major matrix. Sized for the library's needs: k-Shape shape
// extraction (a cluster's m×168 member matrix and its m×m Gram matrix,
// m ≤ 20), service-pair correlation matrices (20×20), and the Jacobi
// eigensolver. Not a general BLAS replacement.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace appscope::la {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  std::span<const double> data() const noexcept { return data_; }
  std::span<double> data() noexcept { return data_; }

  /// Matrix-vector product; requires x.size() == cols().
  std::vector<double> multiply(std::span<const double> x) const;

  /// True if the matrix is square and symmetric within tol.
  bool is_symmetric(double tol = 1e-12) const noexcept;

  double frobenius_norm() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace appscope::la
