#include "la/vector_ops.hpp"

#include <cmath>

#include "la/simd.hpp"
#include "util/error.hpp"

// The sequential reductions (dot, norms, sum, squared_distance) stay scalar
// on purpose: they accumulate in index order, and any vector re-association
// would change their bits — and with them seeded results project-wide. Only
// the elementwise operations dispatch to la::simd.

namespace appscope::la {

double dot(std::span<const double> a, std::span<const double> b) {
  APPSCOPE_REQUIRE(a.size() == b.size(), "dot: length mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(std::span<const double> a) noexcept {
  double acc = 0.0;
  for (const double v : a) acc += v * v;
  return std::sqrt(acc);
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  APPSCOPE_REQUIRE(a.size() == b.size(), "squared_distance: length mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  APPSCOPE_REQUIRE(x.size() == y.size(), "axpy: length mismatch");
  simd::active().axpy(alpha, x.data(), y.data(), x.size());
}

void scale(std::span<double> x, double alpha) noexcept {
  simd::active().scale(x.data(), x.size(), alpha);
}

double sum(std::span<const double> a) noexcept {
  double acc = 0.0;
  for (const double v : a) acc += v;
  return acc;
}

double mean(std::span<const double> a) {
  APPSCOPE_REQUIRE(!a.empty(), "mean: empty input");
  return sum(a) / static_cast<double>(a.size());
}

}  // namespace appscope::la
