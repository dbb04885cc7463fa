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

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// Builds from row-major data; requires data.size() == rows*cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  static Matrix identity(std::size_t n);

  /// Outer product a * b^T.
  static Matrix outer(std::span<const double> a, std::span<const double> b);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// At-style checked access; throws PreconditionError when out of range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  std::span<const double> data() const noexcept { return data_; }
  std::span<double> data() noexcept { return data_; }

  Matrix transpose() const;

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(const Matrix& other) const;
  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(double alpha) noexcept;

  /// Matrix-vector product; requires x.size() == cols().
  std::vector<double> multiply(std::span<const double> x) const;

  /// True if max |a_ij - b_ij| <= tol.
  bool approx_equal(const Matrix& other, double tol) const noexcept;

  /// True if the matrix is square and symmetric within tol.
  bool is_symmetric(double tol = 1e-12) const noexcept;

  double trace() const;
  double frobenius_norm() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace appscope::la
