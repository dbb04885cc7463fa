// appscope/stats/correlation.hpp
//
// Correlation measures used throughout the paper's analyses: Pearson's r and
// the coefficient of determination r² (Figs. 10-11), and pairwise
// correlation matrices over sets of vectors.
#pragma once

#include <span>
#include <vector>

#include "la/matrix.hpp"

namespace appscope::stats {

/// Pearson's correlation coefficient r in [-1, 1].
/// Requires equal lengths >= 2. If either vector is constant, returns 0
/// (no linear association measurable), matching common tooling behavior.
double pearson(std::span<const double> x, std::span<const double> y);

/// Coefficient of determination r² = pearson²  (the paper's "Pearson's r²").
double pearson_r2(std::span<const double> x, std::span<const double> y);

/// Pairwise r² matrix: entry (i, j) = pearson_r2(vectors[i], vectors[j]),
/// bit for bit. All vectors must have equal length >= 2. The diagonal is 1
/// unless a vector is constant, in which case its whole row/column is 0.
/// Each vector is centred once, so a pair costs one dot product.
la::Matrix pairwise_r2(const std::vector<std::vector<double>>& vectors);

/// Off-diagonal entries of a symmetric matrix flattened to a vector
/// (upper triangle, row-major): useful for CDFs over pairwise values.
std::vector<double> upper_triangle(const la::Matrix& m);

/// Mean of the off-diagonal upper triangle of a symmetric matrix.
double mean_off_diagonal(const la::Matrix& m);

}  // namespace appscope::stats
