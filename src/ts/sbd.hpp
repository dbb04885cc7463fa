// appscope/ts/sbd.hpp
//
// Shape-Based Distance (SBD) and cross-correlation alignment from the
// k-Shape paper (Paparrizos & Gravano, SIGMOD 2015).
//
// For equal-length series x, y of length m:
//   NCCc_w(x, y) = CC_w(x, y) / (||x||_2 ||y||_2),  w = 1..2m-1
//   SBD(x, y)    = 1 - max_w NCCc_w(x, y)          ∈ [0, 2]
// where CC_w is the linear cross-correlation at shift s = w - m.
// SBD is shift-invariant; on z-normalized series it is also scale-invariant.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace appscope::ts {

struct SbdResult {
  /// The distance 1 - max NCCc, in [0, 2] (0 = identical shape).
  double distance = 0.0;
  /// Optimal alignment shift of y relative to x, in [-(m-1), m-1].
  std::ptrdiff_t shift = 0;
  /// max NCCc value, in [-1, 1].
  double ncc = 0.0;
};

/// SBD with optimal shift. Requires equal, non-zero lengths.
SbdResult sbd(std::span<const double> x, std::span<const double> y);

/// Distance only (convenience for distance-functor interfaces).
double sbd_distance(std::span<const double> x, std::span<const double> y);

/// Shifts `y` by `shift` positions (positive = right), zero-padding the
/// vacated samples; output length equals input length. This is the k-Shape
/// alignment step applied before shape extraction.
std::vector<double> shift_series(std::span<const double> y, std::ptrdiff_t shift);

/// Allocation-free variant: writes the shifted series into `out` (resized
/// to y.size(), reusing capacity) — for alignment loops that shift into the
/// same buffer repeatedly.
void shift_series_into(std::span<const double> y, std::ptrdiff_t shift,
                       std::vector<double>& out);

}  // namespace appscope::ts
