#include "stats/distribution.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace appscope::stats {

Ecdf::Ecdf(std::span<const double> sample) : sorted_(sample.begin(), sample.end()) {
  APPSCOPE_REQUIRE(!sorted_.empty(), "Ecdf: empty sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const noexcept {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(std::distance(sorted_.begin(), it)) /
         static_cast<double>(sorted_.size());
}

std::vector<double> cumulative_share_ranked(std::span<const double> values) {
  APPSCOPE_REQUIRE(!values.empty(), "cumulative_share_ranked: empty input");
  std::vector<double> sorted(values.begin(), values.end());
  double total = 0.0;
  for (const double v : sorted) {
    APPSCOPE_REQUIRE(v >= 0.0, "cumulative_share_ranked: negative value");
    total += v;
  }
  APPSCOPE_REQUIRE(total > 0.0, "cumulative_share_ranked: zero total");
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::vector<double> out(sorted.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    acc += sorted[i];
    out[i] = acc / total;
  }
  return out;
}

double top_fraction_share(std::span<const double> values, double fraction) {
  APPSCOPE_REQUIRE(fraction > 0.0 && fraction <= 1.0,
                   "top_fraction_share: fraction must be in (0,1]");
  const std::vector<double> cum = cumulative_share_ranked(values);
  const auto k = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(cum.size())));
  return cum[std::min(std::max<std::size_t>(k, 1), cum.size()) - 1];
}

double gini(std::span<const double> values) {
  APPSCOPE_REQUIRE(!values.empty(), "gini: empty input");
  std::vector<double> sorted(values.begin(), values.end());
  double total = 0.0;
  for (const double v : sorted) {
    APPSCOPE_REQUIRE(v >= 0.0, "gini: negative value");
    total += v;
  }
  APPSCOPE_REQUIRE(total > 0.0, "gini: zero total");
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double weighted = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    weighted += static_cast<double>(i + 1) * sorted[i];
  }
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

}  // namespace appscope::stats
