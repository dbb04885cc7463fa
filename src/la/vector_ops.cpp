#include "la/vector_ops.hpp"

#include <algorithm>
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

std::vector<double> add(std::span<const double> a, std::span<const double> b) {
  APPSCOPE_REQUIRE(a.size() == b.size(), "add: length mismatch");
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<double> subtract(std::span<const double> a, std::span<const double> b) {
  APPSCOPE_REQUIRE(a.size() == b.size(), "subtract: length mismatch");
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
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

double max_element(std::span<const double> a) {
  APPSCOPE_REQUIRE(!a.empty(), "max_element: empty input");
  return *std::max_element(a.begin(), a.end());
}

double min_element(std::span<const double> a) {
  APPSCOPE_REQUIRE(!a.empty(), "min_element: empty input");
  return *std::min_element(a.begin(), a.end());
}

std::size_t argmax(std::span<const double> a) {
  APPSCOPE_REQUIRE(!a.empty(), "argmax: empty input");
  return static_cast<std::size_t>(
      std::distance(a.begin(), std::max_element(a.begin(), a.end())));
}

}  // namespace appscope::la
