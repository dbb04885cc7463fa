// appscope/la/vector_ops.hpp
//
// Dense-vector kernels shared by the statistics and time-series modules.
// All functions operate on std::span<const double> views; none allocate
// except those returning a vector.
#pragma once

#include <span>
#include <vector>

namespace appscope::la {

/// Inner product; requires equal lengths.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean (L2) norm.
double norm2(std::span<const double> a) noexcept;

/// Squared Euclidean distance between equal-length vectors.
double squared_distance(std::span<const double> a, std::span<const double> b);

/// Euclidean distance between equal-length vectors.
double distance(std::span<const double> a, std::span<const double> b);

/// y += alpha * x (in place); requires equal lengths.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha (in place).
void scale(std::span<double> x, double alpha) noexcept;

/// Sum of elements.
double sum(std::span<const double> a) noexcept;

/// Arithmetic mean; requires non-empty input.
double mean(std::span<const double> a);

}  // namespace appscope::la
