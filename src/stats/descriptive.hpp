// appscope/stats/descriptive.hpp
//
// Descriptive statistics over contiguous double data.
#pragma once

#include <span>
#include <vector>

namespace appscope::stats {

/// Streaming single-pass accumulator (Welford) for mean/variance plus sum.
/// Numerically stable for long streams of traffic volumes.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const;
  /// Population variance (divide by n). Requires count() >= 1.
  double variance_population() const;
  double stddev_population() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
};

double mean(std::span<const double> xs);

/// Median (average of middle pair for even n); requires non-empty input.
double median(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0, 1]; requires non-empty input.
double quantile(std::span<const double> xs, double q);

/// Several quantiles at once (single sort).
std::vector<double> quantiles(std::span<const double> xs,
                              std::span<const double> qs);

}  // namespace appscope::stats
