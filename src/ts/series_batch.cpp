#include "ts/series_batch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/fft.hpp"
#include "la/simd.hpp"
#include "la/vector_ops.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace appscope::ts {

bool sbd_uses_spectral(std::size_t length) noexcept {
  return length > kSbdSpectralThreshold;
}

namespace {

/// Grows a scratch buffer (never shrinks — callers slice the prefix they
/// need), recording new capacity under ts.sbd.scratch_bytes.
template <typename V>
void grow(V& v, std::size_t n) {
  using T = typename V::value_type;
  if (v.size() >= n) return;
  const std::size_t old_cap = v.capacity();
  v.resize(n);
  if (v.capacity() > old_cap && util::MetricsRegistry::enabled()) {
    util::MetricsRegistry::global().add(
        "ts.sbd.scratch_bytes",
        static_cast<std::uint64_t>((v.capacity() - old_cap) * sizeof(T)));
  }
}

/// Completes the first-max-wins scan over a contiguous value range laid out
/// in scan order: (max value, first attaining index, the element itself).
/// Equivalent to `if (v > best) ...` per element: max_value() ignores NaNs
/// exactly like `>` does, ties at +/-0.0 compare == so the first attaining
/// index matches, and re-reading the element reproduces its zero sign.
struct ScanHit {
  bool found;
  std::size_t index;
  double value;
};

ScanHit scan_max(const la::simd::Kernels& kernels, const double* values,
                 std::size_t n) {
  const double best = kernels.max_value(values, n);
  if (best == -std::numeric_limits<double>::infinity()) {
    // Empty, all-NaN, or a -inf maximum: the scalar scan would never have
    // updated its running best past -inf (`-inf > -inf` is false).
    return {false, 0, best};
  }
  const std::size_t i = kernels.find_first_equal(values, n, best);
  return {true, i, values[i]};
}

}  // namespace

SeriesBatch::SeriesBatch(const std::vector<std::vector<double>>& series)
    : count_(series.size()) {
  APPSCOPE_REQUIRE(!series.empty(), "SeriesBatch: no series");
  length_ = series.front().size();
  APPSCOPE_REQUIRE(length_ >= 1, "SeriesBatch: empty series");
  for (const auto& s : series) {
    APPSCOPE_REQUIRE(s.size() == length_, "SeriesBatch: ragged series");
  }
  if (sbd_uses_spectral(length_)) {
    padded_ = la::next_pow2(2 * length_ - 1);
    spec_stride_ = padded_ / 2 + 1;
  }
  row_pitch_ = la::padded_count<double>(length_);
  spec_pitch_ = la::padded_count<std::complex<double>>(spec_stride_);
  values_.resize(count_ * row_pitch_);
  norms_.resize(count_);
  spectra_.resize(count_ * spec_pitch_);
  for (std::size_t i = 0; i < count_; ++i) {
    std::copy(series[i].begin(), series[i].end(),
              values_.begin() + static_cast<std::ptrdiff_t>(i * row_pitch_));
  }
  // Per-row norm + forward transform; rows are independent, so precompute in
  // parallel (results thread-count invariant).
  constexpr std::size_t kRowsPerShard = 16;
  util::parallel_for(0, count_, kRowsPerShard,
                     [this](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) refresh_row(i);
                     });
  if (util::MetricsRegistry::enabled()) {
    util::MetricsRegistry::global().add("ts.series_batch.builds");
    util::MetricsRegistry::global().add(
        "ts.series_batch.bytes",
        static_cast<std::uint64_t>(values_.size() * sizeof(double) +
                                   norms_.size() * sizeof(double) +
                                   spectra_.size() *
                                       sizeof(std::complex<double>)));
  }
}

SeriesBatch::SeriesBatch(std::size_t count, std::size_t length)
    : count_(count), length_(length) {
  APPSCOPE_REQUIRE(count >= 1 && length >= 1, "SeriesBatch: empty shape");
  if (sbd_uses_spectral(length_)) {
    padded_ = la::next_pow2(2 * length_ - 1);
    spec_stride_ = padded_ / 2 + 1;
  }
  row_pitch_ = la::padded_count<double>(length_);
  spec_pitch_ = la::padded_count<std::complex<double>>(spec_stride_);
  // All-zero rows: norms 0, spectra 0 — never read, because the SBD kernel
  // returns early on a zero norm.
  values_.resize(count_ * row_pitch_, 0.0);
  norms_.resize(count_, 0.0);
  spectra_.resize(count_ * spec_pitch_);
}

void SeriesBatch::set_series(std::size_t i, std::span<const double> values) {
  APPSCOPE_REQUIRE(i < count_, "SeriesBatch: row out of range");
  APPSCOPE_REQUIRE(values.size() == length_, "SeriesBatch: length mismatch");
  std::copy(values.begin(), values.end(),
            values_.begin() + static_cast<std::ptrdiff_t>(i * row_pitch_));
  refresh_row(i);
}

void SeriesBatch::refresh_row(std::size_t i) {
  const std::span<const double> row = series(i);
  norms_[i] = la::norm2(row);
  if (padded_ != 0) {
    const la::RealFftPlan& plan = la::RealFftPlan::plan_for(padded_);
    plan.forward(row, {spectra_.data() + i * spec_pitch_, spec_stride_});
  }
}

SbdScratch& sbd_scratch() {
  static thread_local SbdScratch scratch;
  return scratch;
}

namespace detail {

SbdResult sbd_spans(std::span<const double> x, double norm_x,
                    std::span<const std::complex<double>> spec_x,
                    std::span<const double> y, double norm_y,
                    std::span<const std::complex<double>> spec_y,
                    SbdScratch& scratch) {
  const std::size_t m = x.size();
  APPSCOPE_REQUIRE(m != 0 && m == y.size(), "sbd: equal non-zero lengths required");
  const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(m) - 1;

  SbdResult result;
  const double denom = norm_x * norm_y;
  if (denom == 0.0) {
    // Degenerate (all-zero) series: NCC is identically zero; keep the
    // seed convention (first lag wins the scan of an all-zero sequence).
    result.ncc = 0.0;
    result.distance = 1.0;
    result.shift = -base;
    return result;
  }

  const std::size_t out_len = 2 * m - 1;
  std::size_t best_k = 0;
  double best_v = -std::numeric_limits<double>::infinity();
  const la::simd::Kernels& kernels = la::simd::active();

  if (!sbd_uses_spectral(m)) {
    // Direct evaluation, same arithmetic as la::cross_correlation_direct.
    // The per-lag dot products are sequential reductions and stay scalar
    // (vectorizing them would reorder the additions and change bits).
    grow(scratch.corr, out_len);
    double* corr = scratch.corr.data();
    for (std::size_t k = 0; k < out_len; ++k) {
      const std::ptrdiff_t s = static_cast<std::ptrdiff_t>(k) - base;
      const std::size_t j_lo = s < 0 ? static_cast<std::size_t>(-s) : 0;
      const std::size_t j_hi =
          std::min(m, s < 0 ? m : m - static_cast<std::size_t>(s));
      double acc = 0.0;
      for (std::size_t j = j_lo; j < j_hi; ++j) {
        acc += x[static_cast<std::size_t>(static_cast<std::ptrdiff_t>(j) + s)] *
               y[j];
      }
      corr[k] = acc;
    }
    const ScanHit hit = scan_max(kernels, corr, out_len);
    if (hit.found) {
      best_k = hit.index;
      best_v = hit.value;
    }
  } else {
    // Spectral path: conjugate product of the two spectra + one inverse
    // transform. Cached spectra (from SeriesBatch) are bit-identical to the
    // fresh ones computed here, so both entry points agree bitwise.
    const std::size_t n = la::next_pow2(out_len);
    const la::RealFftPlan& plan = la::RealFftPlan::plan_for(n);
    const std::size_t sp = plan.spectrum_size();
    std::span<const std::complex<double>> fx = spec_x;
    if (fx.empty()) {
      grow(scratch.spec_x, sp);
      plan.forward(x, {scratch.spec_x.data(), sp});
      fx = {scratch.spec_x.data(), sp};
    }
    std::span<const std::complex<double>> fy = spec_y;
    if (fy.empty()) {
      grow(scratch.spec_y, sp);
      plan.forward(y, {scratch.spec_y.data(), sp});
      fy = {scratch.spec_y.data(), sp};
    }
    grow(scratch.product, sp);
    grow(scratch.corr, n);
    std::complex<double>* product = scratch.product.data();
    kernels.conj_multiply(fx.data(), fy.data(), product, sp);
    plan.inverse({product, sp}, {scratch.corr.data(), n});
    // The circular correlation holds lag s at index s (s >= 0) or n + s
    // (s < 0), so the direct layout's k order maps to two contiguous
    // ranges: corr[n - base, n) for k in [0, base), then corr[0, m) for
    // k in [base, out_len). Scan each with the vector kernels; preferring
    // the first range on a tie reproduces the first-max-wins k order.
    const double* corr = scratch.corr.data();
    const std::size_t neg = static_cast<std::size_t>(base);  // negative lags
    const double max_neg = kernels.max_value(corr + (n - neg), neg);
    const double max_pos = kernels.max_value(corr, m);
    const double best = max_pos > max_neg ? max_pos : max_neg;
    if (best != -std::numeric_limits<double>::infinity()) {
      const std::size_t i1 = kernels.find_first_equal(corr + (n - neg), neg, best);
      if (i1 < neg) {
        best_k = i1;
        best_v = corr[n - neg + i1];
      } else {
        const std::size_t i2 = kernels.find_first_equal(corr, m, best);
        best_k = neg + i2;
        best_v = corr[i2];
      }
    }
  }

  result.ncc = std::clamp(best_v / denom, -1.0, 1.0);
  result.distance = 1.0 - result.ncc;
  result.shift = static_cast<std::ptrdiff_t>(best_k) - base;
  return result;
}

}  // namespace detail

SbdResult sbd_pair(const SeriesBatch& x, std::size_t i, const SeriesBatch& y,
                   std::size_t j, SbdScratch& scratch) {
  APPSCOPE_REQUIRE(i < x.size() && j < y.size(), "sbd_pair: row out of range");
  APPSCOPE_REQUIRE(x.length() == y.length(), "sbd_pair: length mismatch");
  std::span<const std::complex<double>> sx;
  std::span<const std::complex<double>> sy;
  if (x.spectral()) sx = x.spectrum(i);
  if (y.spectral()) sy = y.spectrum(j);
  return detail::sbd_spans(x.series(i), x.norm(i), sx, y.series(j), y.norm(j),
                           sy, scratch);
}

double sbd_pair_distance(const SeriesBatch& x, std::size_t i,
                         const SeriesBatch& y, std::size_t j,
                         SbdScratch& scratch) {
  return sbd_pair(x, i, y, j, scratch).distance;
}

DistanceMatrix sbd_distance_matrix(const SeriesBatch& batch) {
  const std::size_t n = batch.size();
  APPSCOPE_REQUIRE(n >= 1, "sbd_distance_matrix: no series");
  util::StageTimer timer("ts.sbd_matrix");
  timer.add_items(n * (n - 1) / 2);  // pairwise distances computed

  DistanceMatrix d(n);
  // Row shards; later rows have shorter upper triangles, so a small grain
  // keeps the shards balanced. Each worker reuses its own scratch.
  constexpr std::size_t kRowsPerShard = 4;
  util::parallel_for(0, n, kRowsPerShard, [&](std::size_t lo, std::size_t hi) {
    SbdScratch& scratch = sbd_scratch();
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        d(i, j) = sbd_pair_distance(batch, i, batch, j, scratch);
      }
    }
  });
  d.symmetrize_upper();
  return d;
}

}  // namespace appscope::ts
