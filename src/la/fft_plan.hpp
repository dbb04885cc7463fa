// appscope/la/fft_plan.hpp
//
// Cached FFT plans and real-input transforms for the SBD/k-Shape hot path.
//
// Every radix-2 transform of a given size shares the same twiddle factors
// and bit-reversal permutation; recomputing them per call (as the seed
// FFT did) makes the trig the dominant cost at SBD sizes. A plan
// precomputes both once per power-of-two size and lives forever in a
// lock-free process-wide cache, so the steady-state cost of a transform is
// just the butterfly arithmetic.
//
// RealFftPlan adds the half-size-complex trick: a real input of length n is
// packed into n/2 complex points, transformed with the half-size complex
// plan, and untangled into the n/2 + 1 non-redundant spectrum bins. Forward
// and inverse real transforms therefore do half the butterfly work of the
// complex transform the seed used for real cross-correlations.
//
// Observability: when util::metrics is enabled the cache records
// la.fft.plan_cache_{hits,misses} and every executed transform increments
// la.fft.transforms. Recording is observation-only — results are bitwise
// identical with metrics on or off.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "la/aligned.hpp"

namespace appscope::la {

/// Immutable plan for an in-place radix-2 complex FFT of size n (a power of
/// two). Obtain shared instances through plan_for(); plans are cached for
/// the lifetime of the process and safe to use from any thread.
class FftPlan {
 public:
  std::size_t size() const noexcept { return n_; }

  /// In-place forward DFT (no scaling) over data[0, size()).
  void forward(std::complex<double>* data) const;

  /// Shared plan for size n (power of two >= 1), from the lock-free cache.
  static const FftPlan& plan_for(std::size_t n);

  /// Builds a standalone plan. Prefer plan_for(), which shares plans
  /// process-wide; direct construction is for tests.
  explicit FftPlan(std::size_t n);

 private:
  void transform(std::complex<double>* data, bool inverse) const;

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;
  /// Forward roots of unity, packed per butterfly stage: the stage with
  /// half-size `half` owns the `half` consecutive entries starting at
  /// offset `half - 1` (n - 1 entries total), so the la::simd butterfly
  /// kernels read twiddles contiguously. Values are the same
  /// exp(-2*pi*i*j/n) doubles a strided j-indexed table would hold.
  AlignedVector<std::complex<double>> stage_twiddles_;

  friend class RealFftPlan;
};

/// Immutable plan for real-input transforms of length n (power of two
/// >= 2), built on the complex plan of size n/2. Spectra hold the
/// n/2 + 1 non-redundant bins of the length-n DFT of a real signal.
class RealFftPlan {
 public:
  std::size_t size() const noexcept { return n_; }
  std::size_t spectrum_size() const noexcept { return n_ / 2 + 1; }

  /// Forward transform of `input` zero-padded to size(): writes
  /// spectrum_size() bins into `spectrum`, which doubles as the transform
  /// workspace (fully overwritten). Requires input.size() <= size().
  void forward(std::span<const double> input,
               std::span<std::complex<double>> spectrum) const;

  /// Inverse transform including the 1/n scale: consumes `spectrum`
  /// (destroyed — it is the workspace) and writes size() real samples into
  /// `output`. spectrum[0] and spectrum[n/2] must be real (their imaginary
  /// parts are ignored), which holds for any product of real-signal spectra.
  void inverse(std::span<std::complex<double>> spectrum,
               std::span<double> output) const;

  /// Shared plan for size n (power of two >= 2), from the lock-free cache.
  static const RealFftPlan& plan_for(std::size_t n);

  /// Builds a standalone plan. Prefer plan_for().
  explicit RealFftPlan(std::size_t n);

 private:
  std::size_t n_;
  const FftPlan* half_;  // cached plan of size n/2 (never freed)
  /// Split twiddles exp(-2*pi*i*k/n) for k in [0, n/4].
  AlignedVector<std::complex<double>> split_;
};

}  // namespace appscope::la
