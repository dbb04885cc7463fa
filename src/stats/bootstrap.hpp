// appscope/stats/bootstrap.hpp
//
// Nonparametric bootstrap confidence intervals. Used by the figure benches
// to attach uncertainty to sample means (e.g. the mean pairwise r² of
// Fig. 10 is a mean over 190 dependent pairs — a bootstrap CI is the honest
// way to report it without distributional assumptions).
#pragma once

#include <cstdint>
#include <span>

namespace appscope::stats {

struct BootstrapCi {
  double point = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double alpha = 0.05;
};

/// Percentile-bootstrap CI for the sample mean. `iterations` resamples of
/// size n with replacement; alpha = 0.05 gives the 95% interval.
/// Deterministic in `seed`. Requires a non-empty sample, iterations >= 100
/// and alpha in (0, 0.5).
BootstrapCi bootstrap_mean_ci(std::span<const double> sample,
                              std::size_t iterations = 2000,
                              double alpha = 0.05, std::uint64_t seed = 1234);

}  // namespace appscope::stats
