#include "la/fft_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "la/simd.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace appscope::la {

namespace {

constexpr std::size_t kMaxPlanLog2 = 32;

std::size_t log2_of_pow2(std::size_t n) noexcept {
  std::size_t l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

void count_transform() {
  if (util::MetricsRegistry::enabled()) {
    util::MetricsRegistry::global().add("la.fft.transforms");
  }
}

/// Lock-free plan cache slot array indexed by log2(size). A miss builds a
/// fresh plan and publishes it with a release CAS; a losing racer deletes
/// its copy and adopts the winner. Published plans are immutable and live
/// for the process lifetime (reachable from the slots, so LeakSanitizer
/// treats them as live).
template <typename Plan>
const Plan& cached_plan(std::atomic<const Plan*>* slots, std::size_t n) {
  const std::size_t idx = log2_of_pow2(n);
  APPSCOPE_REQUIRE(idx < kMaxPlanLog2, "fft: transform size too large");
  std::atomic<const Plan*>& slot = slots[idx];
  const Plan* plan = slot.load(std::memory_order_acquire);
  const bool metrics = util::MetricsRegistry::enabled();
  if (plan != nullptr) {
    if (metrics) util::MetricsRegistry::global().add("la.fft.plan_cache_hits");
    return *plan;
  }
  if (metrics) util::MetricsRegistry::global().add("la.fft.plan_cache_misses");
  const Plan* fresh = new Plan(n);
  const Plan* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;
  return *expected;
}

std::atomic<const FftPlan*> g_complex_plans[kMaxPlanLog2];
std::atomic<const RealFftPlan*> g_real_plans[kMaxPlanLog2];

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  APPSCOPE_REQUIRE(n != 0 && (n & (n - 1)) == 0,
                   "fft: size must be a power of two");
  bitrev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }
  // Stage-packed twiddles (see fft_plan.hpp): the stage with half-size
  // `half` reads its roots w^(k * n/len) from offset half - 1. Same angle
  // expression as the strided j-indexed table, so the values are identical.
  stage_twiddles_.resize(n >= 2 ? n - 1 : 0);
  const double step = -2.0 * M_PI / static_cast<double>(n);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t stride = n / len;
    const std::size_t half = len / 2;
    for (std::size_t k = 0; k < half; ++k) {
      const double angle = step * static_cast<double>(k * stride);
      stage_twiddles_[(half - 1) + k] = {std::cos(angle), std::sin(angle)};
    }
  }
}

void FftPlan::transform(std::complex<double>* data, bool inverse) const {
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // Butterflies run through the dispatched SIMD kernels; the scalar and
  // AVX2 implementations are bitwise identical (see la/simd.hpp).
  const simd::Kernels& kernels = simd::active();
  kernels.fft_passes(data, n, stage_twiddles_.data(), inverse);
  if (inverse) {
    kernels.complex_scale(data, n, 1.0 / static_cast<double>(n));
  }
}

void FftPlan::forward(std::complex<double>* data) const {
  count_transform();
  transform(data, /*inverse=*/false);
}

const FftPlan& FftPlan::plan_for(std::size_t n) {
  APPSCOPE_REQUIRE(n != 0 && (n & (n - 1)) == 0,
                   "fft: size must be a power of two");
  return cached_plan(g_complex_plans, n);
}

RealFftPlan::RealFftPlan(std::size_t n) : n_(n) {
  APPSCOPE_REQUIRE(n >= 2 && (n & (n - 1)) == 0,
                   "rfft: size must be a power of two >= 2");
  half_ = &FftPlan::plan_for(n / 2);
  split_.resize(n / 4 + 1);
  const double step = -2.0 * M_PI / static_cast<double>(n);
  for (std::size_t k = 0; k < split_.size(); ++k) {
    const double angle = step * static_cast<double>(k);
    split_[k] = {std::cos(angle), std::sin(angle)};
  }
}

void RealFftPlan::forward(std::span<const double> input,
                          std::span<std::complex<double>> spectrum) const {
  const std::size_t n = n_;
  const std::size_t h = n / 2;
  APPSCOPE_REQUIRE(input.size() <= n, "rfft: input longer than plan size");
  APPSCOPE_REQUIRE(spectrum.size() >= spectrum_size(),
                   "rfft: spectrum buffer too small");
  count_transform();

  // Pack pairs of real samples into the half-size complex workspace
  // (zero-padding past the input). std::complex<double> is array-compatible
  // with double[2], so the even/odd interleave is just a flat copy.
  const std::size_t m = input.size();
  double* workspace = reinterpret_cast<double*>(spectrum.data());
  std::copy_n(input.data(), m, workspace);
  std::fill(workspace + m, workspace + n, 0.0);
  half_->transform(spectrum.data(), /*inverse=*/false);

  // Untangle the even/odd interleave: for Z = FFT_h(packed),
  //   E[k] = (Z[k] + conj(Z[h-k])) / 2      (spectrum of even samples)
  //   O[k] = (Z[k] - conj(Z[h-k])) / (2i)   (spectrum of odd samples)
  //   X[k] = E[k] + w^k O[k],  w = exp(-2*pi*i/n)
  // processed in (k, h-k) pairs so the untangle runs in place.
  const std::complex<double> z0 = spectrum[0];
  spectrum[0] = {z0.real() + z0.imag(), 0.0};
  spectrum[h] = {z0.real() - z0.imag(), 0.0};
  simd::active().rfft_untangle(spectrum.data(), split_.data(), h);
  if (h >= 2) {
    // Middle bin k = h/2: w^k = -i, so X[k] = conj(Z[k]).
    const std::size_t mid = h / 2;
    spectrum[mid] = {spectrum[mid].real(), -spectrum[mid].imag()};
  }
}

void RealFftPlan::inverse(std::span<std::complex<double>> spectrum,
                          std::span<double> output) const {
  const std::size_t n = n_;
  const std::size_t h = n / 2;
  APPSCOPE_REQUIRE(spectrum.size() >= spectrum_size(),
                   "irfft: spectrum buffer too small");
  APPSCOPE_REQUIRE(output.size() >= n, "irfft: output buffer too small");
  count_transform();

  // Re-tangle the spectrum into the half-size complex signal:
  //   E[k] = (X[k] + conj(X[h-k])) / 2
  //   O[k] = (X[k] - conj(X[h-k])) / 2 * conj(w^k)
  //   Z[k] = E[k] + i O[k]
  const double x0 = spectrum[0].real();
  const double xh = spectrum[h].real();
  spectrum[0] = {0.5 * (x0 + xh), 0.5 * (x0 - xh)};
  simd::active().rfft_retangle(spectrum.data(), split_.data(), h);
  if (h >= 2) {
    const std::size_t mid = h / 2;
    spectrum[mid] = {spectrum[mid].real(), -spectrum[mid].imag()};
  }
  half_->transform(spectrum.data(), /*inverse=*/true);
  std::copy_n(reinterpret_cast<const double*>(spectrum.data()), n,
              output.data());
}

const RealFftPlan& RealFftPlan::plan_for(std::size_t n) {
  APPSCOPE_REQUIRE(n >= 2 && (n & (n - 1)) == 0,
                   "rfft: size must be a power of two >= 2");
  return cached_plan(g_real_plans, n);
}

}  // namespace appscope::la
