#include "ts/sbd.hpp"

#include "la/vector_ops.hpp"
#include "ts/series_batch.hpp"
#include "util/error.hpp"

namespace appscope::ts {

SbdResult sbd(std::span<const double> x, std::span<const double> y) {
  APPSCOPE_REQUIRE(!x.empty() && x.size() == y.size(),
                   "sbd: equal non-zero lengths required");
  // Runs the canonical kernel with fresh spectra (empty spectrum spans);
  // SeriesBatch callers hit the same kernel with cached ones.
  return detail::sbd_spans(x, la::norm2(x), {}, y, la::norm2(y), {},
                           sbd_scratch());
}

double sbd_distance(std::span<const double> x, std::span<const double> y) {
  return sbd(x, y).distance;
}

void shift_series_into(std::span<const double> y, std::ptrdiff_t shift,
                       std::vector<double>& out) {
  const auto m = static_cast<std::ptrdiff_t>(y.size());
  APPSCOPE_REQUIRE(shift > -m && shift < m, "shift_series: |shift| must be < length");
  out.assign(y.size(), 0.0);
  for (std::ptrdiff_t i = 0; i < m; ++i) {
    const std::ptrdiff_t j = i - shift;  // out[i] = y[i - shift]
    if (j >= 0 && j < m) out[static_cast<std::size_t>(i)] = y[static_cast<std::size_t>(j)];
  }
}

std::vector<double> shift_series(std::span<const double> y, std::ptrdiff_t shift) {
  std::vector<double> out;
  shift_series_into(y, shift, out);
  return out;
}

}  // namespace appscope::ts
