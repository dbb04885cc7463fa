#include "ts/znorm.hpp"

#include <algorithm>
#include <cmath>

#include "la/simd.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace appscope::ts {

void znormalize_inplace(std::span<double> x) noexcept {
  if (x.empty()) return;
  // The mean/stddev pass is a sequential Welford reduction and stays
  // scalar: reordering it would change the statistics' bits, and through
  // them every normalized value. Only the elementwise apply loop below
  // goes through the dispatched SIMD kernels.
  stats::RunningStats rs;
  for (const double v : x) rs.add(v);
  const double m = rs.sum() / static_cast<double>(x.size());
  const double sd = rs.stddev_population();
  if (sd <= 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    return;
  }
  la::simd::active().znorm_apply(x.data(), x.size(), m, sd);
}

void znormalize_into(std::span<const double> x, std::vector<double>& out) {
  out.assign(x.begin(), x.end());
  znormalize_inplace(out);
}

std::vector<double> znormalize(std::span<const double> x) {
  std::vector<double> out;
  znormalize_into(x, out);
  return out;
}

bool is_znormalized(std::span<const double> x, double tol) noexcept {
  if (x.empty()) return true;
  stats::RunningStats rs;
  for (const double v : x) rs.add(v);
  const double m = rs.sum() / static_cast<double>(x.size());
  const double sd = rs.stddev_population();
  const bool all_zero =
      std::all_of(x.begin(), x.end(), [](double v) { return v == 0.0; });
  return all_zero || (std::abs(m) <= tol && std::abs(sd - 1.0) <= tol);
}

}  // namespace appscope::ts
