#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace appscope::stats {

void RunningStats::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  APPSCOPE_REQUIRE(count_ > 0, "RunningStats::mean: no samples");
  return mean_;
}

double RunningStats::variance_population() const {
  APPSCOPE_REQUIRE(count_ > 0, "variance_population: no samples");
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev_population() const {
  return std::sqrt(variance_population());
}

namespace {
RunningStats accumulate(std::span<const double> xs) {
  RunningStats rs;
  for (const double x : xs) rs.add(x);
  return rs;
}
}  // namespace

double mean(std::span<const double> xs) { return accumulate(xs).mean(); }

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
  APPSCOPE_REQUIRE(!xs.empty(), "quantile: empty input");
  APPSCOPE_REQUIRE(q >= 0.0 && q <= 1.0, "quantile: q must be in [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> quantiles(std::span<const double> xs,
                              std::span<const double> qs) {
  APPSCOPE_REQUIRE(!xs.empty(), "quantiles: empty input");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) {
    APPSCOPE_REQUIRE(q >= 0.0 && q <= 1.0, "quantiles: q must be in [0,1]");
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    out.push_back(sorted[lo] * (1.0 - frac) + sorted[hi] * frac);
  }
  return out;
}

}  // namespace appscope::stats
