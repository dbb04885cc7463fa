// appscope/stats/distribution.hpp
//
// Empirical distribution machinery for the spatial analyses:
//  - ECDF (per-subscriber traffic CDF, Fig. 8 right; pairwise-r² CDF, Fig. 10),
//  - cumulative share over ranked contributors / Lorenz curve (Fig. 8 left),
//  - Gini coefficient (spatial concentration summary).
#pragma once

#include <span>
#include <vector>

namespace appscope::stats {

/// Empirical CDF built from a sample; evaluation is O(log n).
class Ecdf {
 public:
  explicit Ecdf(std::span<const double> sample);

  /// P(X <= x).
  double operator()(double x) const noexcept;

  std::size_t size() const noexcept { return sorted_.size(); }
  const std::vector<double>& sorted_sample() const noexcept { return sorted_; }

 private:
  std::vector<double> sorted_;
};

/// Cumulative share of the total held by the top-ranked contributors:
/// result[i] = (sum of the i+1 largest values) / (sum of all values).
/// This is the "cumulative traffic over ranked communes" of Fig. 8 (left).
/// Requires a non-negative sample with positive total.
std::vector<double> cumulative_share_ranked(std::span<const double> values);

/// Share of the total held by the top `fraction` of contributors
/// (e.g. fraction = 0.01 → share of the top 1% of communes).
double top_fraction_share(std::span<const double> values, double fraction);

/// Gini coefficient in [0, 1] for a non-negative sample with positive total.
double gini(std::span<const double> values);

}  // namespace appscope::stats
