#include "la/fft.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace appscope::la {

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<double> cross_correlation_direct(std::span<const double> a,
                                             std::span<const double> b) {
  APPSCOPE_REQUIRE(!a.empty() && !b.empty(), "cross_correlation_direct: empty input");
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  const std::size_t out_len = na + nb - 1;
  std::vector<double> out(out_len, 0.0);
  // r[k] with shift s = k - (nb - 1): r[k] = sum_j a[j + s] * b[j].
  for (std::size_t k = 0; k < out_len; ++k) {
    const std::ptrdiff_t s =
        static_cast<std::ptrdiff_t>(k) - static_cast<std::ptrdiff_t>(nb - 1);
    const std::size_t j_lo = s < 0 ? static_cast<std::size_t>(-s) : 0;
    const std::size_t j_hi =
        std::min(nb, s < 0 ? nb : na - static_cast<std::size_t>(s));
    double acc = 0.0;
    for (std::size_t j = j_lo; j < j_hi; ++j) {
      acc += a[static_cast<std::size_t>(static_cast<std::ptrdiff_t>(j) + s)] * b[j];
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace appscope::la
