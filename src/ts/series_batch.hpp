// appscope/ts/series_batch.hpp
//
// Flat storage + cached spectra for the SBD/k-Shape hot path.
//
// The seed computed every pairwise SBD independently: two forward FFTs, a
// product, an inverse FFT, and ~4 temporary vectors per pair — so an N-series
// distance matrix ran O(N^2) forward transforms over the same N inputs.
// SeriesBatch stores equal-length series row-major in one allocation and
// precomputes, per series, its L2 norm and (when the series is long enough
// for the spectral path) its forward real-FFT spectrum at the padded
// correlation size. A pairwise SBD then costs one conjugate multiply and one
// inverse transform into per-worker scratch, with zero allocations in the
// inner loop: O(N) forward transforms total instead of O(N^2).
//
// Bitwise contract: sbd_pair() on cached spectra produces bit-identical
// results to ts::sbd() on the raw series, because both run the same kernel
// (detail::sbd_spans) and rfft is deterministic — a cached spectrum is the
// same bits as a freshly computed one. Property-tested in
// tests/properties/test_prop_sbd_batch.cpp.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "la/aligned.hpp"
#include "la/fft_plan.hpp"
#include "ts/distance_matrix.hpp"
#include "ts/sbd.hpp"

namespace appscope::ts {

/// Direct evaluation wins for SBD up to this series length; above it the
/// batch spectral path is faster. Cached spectra reduce the per-pair
/// spectral cost to one conj-multiply plus one inverse transform: measured
/// (release, -O2, plan cache warm) direct wins at m = 80 (2.3us vs 2.8us per
/// pair) and loses from m = 96 (3.9us vs 2.9us).
inline constexpr std::size_t kSbdSpectralThreshold = 80;

/// True when SBD over length-m series takes the spectral path (above
/// kSbdSpectralThreshold); below it, correlations are evaluated directly and
/// batches skip spectrum precomputation entirely.
bool sbd_uses_spectral(std::size_t length) noexcept;

/// Flat row-major batch of equal-length series with cached per-series norms
/// and padded forward spectra. Immutable rows except through set_series(),
/// which refreshes that row's cache. Distinct rows may be updated from
/// distinct threads concurrently (disjoint storage).
class SeriesBatch {
 public:
  /// Flattens `series` (all equal length >= 1) and precomputes norms and
  /// spectra; rows are processed in parallel on the global pool.
  explicit SeriesBatch(const std::vector<std::vector<double>>& series);
  /// `count` all-zero series of `length` (norms 0, spectra 0) — the shape
  /// k-Shape centroid batches start from; fill rows via set_series().
  SeriesBatch(std::size_t count, std::size_t length);

  std::size_t size() const noexcept { return count_; }
  std::size_t length() const noexcept { return length_; }
  bool empty() const noexcept { return count_ == 0; }

  /// FFT size used for cached spectra (next_pow2(2 * length - 1)), or 0 when
  /// the batch is below the spectral crossover and holds no spectra.
  std::size_t padded_size() const noexcept { return padded_; }
  bool spectral() const noexcept { return padded_ != 0; }

  std::span<const double> series(std::size_t i) const noexcept {
    return {values_.data() + i * row_pitch_, length_};
  }
  double norm(std::size_t i) const noexcept { return norms_[i]; }
  /// Cached forward spectrum of row i (padded_size()/2 + 1 bins). Only valid
  /// when spectral().
  std::span<const std::complex<double>> spectrum(std::size_t i) const noexcept {
    return {spectra_.data() + i * spec_pitch_, spec_stride_};
  }

  /// Overwrites row i with `values` (must match length()) and refreshes its
  /// norm and spectrum.
  void set_series(std::size_t i, std::span<const double> values);

 private:
  void refresh_row(std::size_t i);

  std::size_t count_ = 0;
  std::size_t length_ = 0;
  std::size_t padded_ = 0;       // 0 => direct path, no spectra
  std::size_t spec_stride_ = 0;  // padded_ / 2 + 1 when spectral
  // Physical row pitches: logical extents rounded up to whole cache lines
  // so every row starts 64-byte aligned (padding stays zero, never read).
  std::size_t row_pitch_ = 0;    // >= length_
  std::size_t spec_pitch_ = 0;   // >= spec_stride_
  la::AlignedVector<double> values_;  // count_ x row_pitch_
  std::vector<double> norms_;         // count_
  la::AlignedVector<std::complex<double>> spectra_;  // count_ x spec_pitch_
};

/// Per-worker scratch for the SBD kernel. Buffers grow to the working size
/// on first use and are reused (fully overwritten) on every call — zero
/// allocations in steady state, across matrix sizes (a larger problem grows
/// the buffers once; smaller ones slice prefixes). Growth is recorded under
/// ts.sbd.scratch_bytes when metrics are enabled. Buffers are cache-line
/// aligned: the SIMD kernels stream through them, and distinct workers'
/// scratch never shares a line.
struct SbdScratch {
  la::AlignedVector<std::complex<double>> spec_x;  // fresh spectrum (x)
  la::AlignedVector<std::complex<double>> spec_y;  // fresh spectrum (y)
  la::AlignedVector<std::complex<double>> product;  // X . conj(Y) -> irfft
  la::AlignedVector<double> corr;                   // correlation output
};

/// Thread-local scratch instance — callers on pool workers each get their
/// own, so parallel SBD loops share nothing mutable.
SbdScratch& sbd_scratch();

namespace detail {
/// Canonical SBD kernel shared by the per-pair (ts::sbd) and batch
/// (sbd_pair) entry points; both paths being this one function is what makes
/// them bitwise identical. Pass empty spectra to have them computed fresh
/// into `scratch` (the per-pair path); cached spectra must have been
/// produced by the same rfft at next_pow2(2m - 1).
SbdResult sbd_spans(std::span<const double> x, double norm_x,
                    std::span<const std::complex<double>> spec_x,
                    std::span<const double> y, double norm_y,
                    std::span<const std::complex<double>> spec_y,
                    SbdScratch& scratch);
}  // namespace detail

/// SBD between row i of `x` and row j of `y` using cached norms/spectra.
/// Batches must have equal lengths. Bit-identical to
/// ts::sbd(x.series(i), y.series(j)).
SbdResult sbd_pair(const SeriesBatch& x, std::size_t i, const SeriesBatch& y,
                   std::size_t j, SbdScratch& scratch);

/// Distance-only convenience for assignment loops.
double sbd_pair_distance(const SeriesBatch& x, std::size_t i,
                         const SeriesBatch& y, std::size_t j,
                         SbdScratch& scratch);

/// Symmetric pairwise SBD matrix over the batch (zero diagonal), row-sharded
/// across the global pool with per-worker scratch; each cell is bitwise
/// ts::sbd_distance of its pair, at any thread count.
DistanceMatrix sbd_distance_matrix(const SeriesBatch& batch);

}  // namespace appscope::ts
