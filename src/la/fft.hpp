// appscope/la/fft.hpp
//
// Cross-correlation helpers for the SBD shape distance (ts/sbd.hpp): the
// normalized cross-correlation across all shifts of two length-n series is
// a length-(2n-1) linear cross-correlation. The SBD kernel
// (ts::detail::sbd_spans) evaluates it directly or through the cached
// real-FFT plans (la/fft_plan.hpp); cross_correlation_direct is the O(n^2)
// reference that tests hold both paths against.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace appscope::la {

/// Smallest power of two >= n (n = 0 -> 1).
std::size_t next_pow2(std::size_t n) noexcept;

/// Full linear cross-correlation r[k] = sum_i a[i] * b[i - (k - (nb-1))]:
/// output length na + nb - 1, with lag k - (nb - 1) ranging over
/// [-(nb-1), na-1]. Direct O(na*nb) evaluation.
std::vector<double> cross_correlation_direct(std::span<const double> a,
                                             std::span<const double> b);

/// Vector convenience (brace-init-list friendly); forwards to the span
/// overload without copying.
inline std::vector<double> cross_correlation_direct(const std::vector<double>& a,
                                                    const std::vector<double>& b) {
  return cross_correlation_direct(std::span<const double>(a),
                                  std::span<const double>(b));
}

}  // namespace appscope::la
