// appscope/ts/znorm.hpp
//
// Z-normalization (zero mean, unit variance), the canonical preprocessing
// for shape-based time-series comparison (k-Shape operates on z-normalized
// series).
#pragma once

#include <span>
#include <vector>

namespace appscope::ts {

/// Returns (x - mean) / stddev. A constant series maps to all zeros
/// (its shape carries no information).
std::vector<double> znormalize(std::span<const double> x);

/// In-place variant.
void znormalize_inplace(std::span<double> x) noexcept;

/// Writes the normalized copy into `out` (resized to x.size()), reusing
/// out's existing capacity — the allocation-free variant for loops that
/// normalize into the same buffer repeatedly.
void znormalize_into(std::span<const double> x, std::vector<double>& out);

/// True if |mean| <= tol and |stddev - 1| <= tol (or the series is all-zero).
bool is_znormalized(std::span<const double> x, double tol = 1e-9) noexcept;

}  // namespace appscope::ts
