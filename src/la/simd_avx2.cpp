// AVX2 kernel implementations for la::simd.
//
// Compiled with -mavx2 -mpclmul -ffp-contract=off and with FMA and AVX-512
// off (see src/la/CMakeLists.txt); the rest of the project never needs
// AVX2 or PCLMULQDQ to link this TU because everything is reached through
// the kernel table, which is only selected when the CPU reports both.
//
// Bitwise contract with the scalar kernels: every lane performs the same
// IEEE operation sequence the scalar loop performs for that element. The
// building blocks used to guarantee that:
//   - no FMA intrinsics — multiplies and adds stay separate operations,
//     matching the non-contracted scalar code;
//   - x - y is computed either as a vector subtract or as x + (-y) via a
//     sign-bit xor: identical IEEE results for every numeric y, and the
//     only divergence possible at all is the sign/payload bits of a
//     *propagated NaN* (the xor flips y's sign bit before it propagates) —
//     still NaN in both paths, and unreachable from finite pipeline data;
//   - commutes (a + b vs b + a, a * b vs b * a) are allowed — IEEE addition
//     and multiplication are commutative at the bit level for numeric
//     operands (when *two* NaN payloads meet, the propagated payload can
//     depend on operand order; results are still NaN in both paths);
//   - complex shuffles only move lanes, never re-round.
#include "la/simd.hpp"

#if !defined(__AVX2__) || !defined(__PCLMUL__)
#error "simd_avx2.cpp must be compiled with -mavx2 -mpclmul"
#endif
#if defined(__FMA__) || defined(__FMA4__) || defined(__AVX512F__)
#error "simd_avx2.cpp must be compiled without FMA (-mno-fma -mno-fma4 -mno-avx512f)"
#endif

#include <immintrin.h>

#include <bit>
#include <cstring>
#include <limits>

#include "la/simd_noise.hpp"
#include "util/rng.hpp"

namespace appscope::la::simd {

namespace scalar {
// Slicing-by-8 over a running (pre-inverted) CRC-32 state. Defined in
// simd.cpp, which is built for the baseline ISA: an inline helper shared by
// both TUs could be linked in its -mavx2 copy and fault on a CPU without
// AVX2.
std::uint32_t crc32_update(std::uint32_t state, const std::byte* data,
                           std::size_t n) noexcept;
}  // namespace scalar

namespace avx2 {

namespace {

using cd = std::complex<double>;

/// Sign mask flipping the imaginary (odd) lanes: xor with this negates the
/// imaginary halves of two packed complex doubles.
inline __m256d imag_neg() noexcept { return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0); }

/// Swaps the two 128-bit halves, i.e. swaps two packed complex values.
inline __m256d swap_halves(__m256d v) noexcept {
  return _mm256_permute2f128_pd(v, v, 0x01);
}

}  // namespace

void fft_passes(cd* data, std::size_t n, const cd* stage_twiddles,
                bool inverse) {
  if (n < 4) {
    if (n == 2) {
      // Single butterfly, same arithmetic as the scalar kernel.
      const cd w = stage_twiddles[0];
      const double wr = w.real();
      const double wi = inverse ? -w.imag() : w.imag();
      const cd u = data[0];
      const cd b = data[1];
      const double vr = b.real() * wr - b.imag() * wi;
      const double vi = b.real() * wi + b.imag() * wr;
      data[0] = {u.real() + vr, u.imag() + vi};
      data[1] = {u.real() - vr, u.imag() - vi};
    }
    return;
  }
  double* d = reinterpret_cast<double*>(data);
  // len == 2: butterflies pair adjacent complex values, so deinterleave two
  // (u, b) pairs across the 128-bit halves. The stage twiddle w = stw[0] is
  // (1, -0.0) — the multiplies are kept (not short-circuited to u +/- b) so
  // signed zeros and NaNs come out exactly as in the scalar pass.
  {
    const cd w = stage_twiddles[0];
    const __m256d wr_v = _mm256_set1_pd(w.real());
    const __m256d wi_v = _mm256_set1_pd(inverse ? -w.imag() : w.imag());
    for (std::size_t i = 0; i < n; i += 4) {
      const __m256d y0 = _mm256_loadu_pd(d + 2 * i);
      const __m256d y1 = _mm256_loadu_pd(d + 2 * i + 4);
      const __m256d u = _mm256_permute2f128_pd(y0, y1, 0x20);
      const __m256d b = _mm256_permute2f128_pd(y0, y1, 0x31);
      const __m256d t1 = _mm256_mul_pd(b, wr_v);
      const __m256d t2 = _mm256_mul_pd(_mm256_permute_pd(b, 0x5), wi_v);
      const __m256d v = _mm256_addsub_pd(t1, t2);
      const __m256d lo = _mm256_add_pd(u, v);
      const __m256d hi = _mm256_sub_pd(u, v);
      _mm256_storeu_pd(d + 2 * i, _mm256_permute2f128_pd(lo, hi, 0x20));
      _mm256_storeu_pd(d + 2 * i + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
    }
  }
  // len >= 4: u and b runs are contiguous, two butterflies per iteration.
  const __m256d neg = imag_neg();
  for (std::size_t len = 4; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const cd* tw = stage_twiddles + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      double* base = d + 2 * i;
      for (std::size_t k = 0; k < half; k += 2) {
        __m256d wv =
            _mm256_loadu_pd(reinterpret_cast<const double*>(tw + k));
        if (inverse) wv = _mm256_xor_pd(wv, neg);
        const __m256d u = _mm256_loadu_pd(base + 2 * k);
        const __m256d b = _mm256_loadu_pd(base + 2 * (k + half));
        // v = b * w: [br*wr - bi*wi, bi*wr + br*wi]
        const __m256d t1 = _mm256_mul_pd(b, _mm256_movedup_pd(wv));
        const __m256d t2 = _mm256_mul_pd(_mm256_permute_pd(b, 0x5),
                                         _mm256_permute_pd(wv, 0xF));
        const __m256d v = _mm256_addsub_pd(t1, t2);
        _mm256_storeu_pd(base + 2 * k, _mm256_add_pd(u, v));
        _mm256_storeu_pd(base + 2 * (k + half), _mm256_sub_pd(u, v));
      }
    }
  }
}

void rfft_untangle(cd* spectrum, const cd* split, std::size_t h) {
  double* sp = reinterpret_cast<double*>(spectrum);
  const __m256d neg = imag_neg();
  const __m256d half_v = _mm256_set1_pd(0.5);
  std::size_t k = 1;
  // Pairs (k, k+1); both mirrors must stay strictly above their index, i.e.
  // k+1 < h-(k+1). Written additively so h == 1 cannot wrap the subtraction.
  for (; 2 * k + 2 < h; k += 2) {
    const __m256d zk = _mm256_loadu_pd(sp + 2 * k);  // [z_k, z_{k+1}]
    const __m256d zm =
        swap_halves(_mm256_loadu_pd(sp + 2 * (h - k - 1)));  // [z_{h-k}, z_{h-k-1}]
    const __m256d wv =
        _mm256_loadu_pd(reinterpret_cast<const double*>(split + k));
    // P = 0.5*(zk + zkk) = [er, odr]; Q = 0.5*(zk - zkk) = [-odi, ei]
    const __m256d P = _mm256_mul_pd(_mm256_add_pd(zk, zm), half_v);
    const __m256d Q = _mm256_mul_pd(_mm256_sub_pd(zk, zm), half_v);
    const __m256d od = _mm256_xor_pd(_mm256_shuffle_pd(P, Q, 0x5), neg);
    const __m256d e = _mm256_shuffle_pd(P, Q, 0xA);  // [er, ei]
    // t = od * w: [odr*wr - odi*wi, odr*wi + odi*wr]
    const __m256d t1 = _mm256_mul_pd(_mm256_movedup_pd(od), wv);
    const __m256d t2 = _mm256_mul_pd(_mm256_permute_pd(od, 0xF),
                                     _mm256_permute_pd(wv, 0x5));
    const __m256d t = _mm256_addsub_pd(t1, t2);
    const __m256d outk = _mm256_add_pd(e, t);
    // X[h-k] = conj(E - t)
    const __m256d outm = _mm256_xor_pd(_mm256_sub_pd(e, t), neg);
    _mm256_storeu_pd(sp + 2 * k, outk);
    _mm256_storeu_pd(sp + 2 * (h - k - 1), swap_halves(outm));
  }
  for (; k < h - k; ++k) {
    const std::size_t kk = h - k;
    const cd zk = spectrum[k];
    const cd zkk = spectrum[kk];
    const double er = 0.5 * (zk.real() + zkk.real());
    const double ei = 0.5 * (zk.imag() - zkk.imag());
    const double odr = 0.5 * (zk.imag() + zkk.imag());
    const double odi = -0.5 * (zk.real() - zkk.real());
    const cd w = split[k];
    const double tr = odr * w.real() - odi * w.imag();
    const double ti = odr * w.imag() + odi * w.real();
    spectrum[k] = {er + tr, ei + ti};
    spectrum[kk] = {er - tr, -(ei - ti)};
  }
}

void rfft_retangle(cd* spectrum, const cd* split, std::size_t h) {
  double* sp = reinterpret_cast<double*>(spectrum);
  const __m256d neg = imag_neg();
  const __m256d half_v = _mm256_set1_pd(0.5);
  std::size_t k = 1;
  for (; 2 * k + 2 < h; k += 2) {  // k+1 < h-(k+1), wrap-safe for h == 1
    const __m256d xk = _mm256_loadu_pd(sp + 2 * k);
    const __m256d xm = swap_halves(_mm256_loadu_pd(sp + 2 * (h - k - 1)));
    const __m256d wv =
        _mm256_loadu_pd(reinterpret_cast<const double*>(split + k));
    // S = 0.5*(xk + xkk) = [er, di]; D = 0.5*(xk - xkk) = [dr, ei]
    const __m256d S = _mm256_mul_pd(_mm256_add_pd(xk, xm), half_v);
    const __m256d D = _mm256_mul_pd(_mm256_sub_pd(xk, xm), half_v);
    const __m256d a = _mm256_shuffle_pd(D, S, 0xA);  // [dr, di]
    const __m256d e = _mm256_shuffle_pd(S, D, 0xA);  // [er, ei]
    // od = [dr*wr + di*wi, di*wr - dr*wi]
    const __m256d t1 = _mm256_mul_pd(a, _mm256_movedup_pd(wv));
    const __m256d t2 = _mm256_mul_pd(_mm256_permute_pd(a, 0x5),
                                     _mm256_permute_pd(wv, 0xF));
    const __m256d od = _mm256_add_pd(t1, _mm256_xor_pd(t2, neg));
    const __m256d odsw = _mm256_permute_pd(od, 0x5);  // [odi, odr]
    const __m256d outk = _mm256_addsub_pd(e, odsw);   // [er-odi, ei+odr]
    // [er+odi, odr-ei]
    const __m256d outm = _mm256_add_pd(_mm256_xor_pd(e, neg), odsw);
    _mm256_storeu_pd(sp + 2 * k, outk);
    _mm256_storeu_pd(sp + 2 * (h - k - 1), swap_halves(outm));
  }
  for (; k < h - k; ++k) {
    const std::size_t kk = h - k;
    const cd xk = spectrum[k];
    const cd xkk = spectrum[kk];
    const double er = 0.5 * (xk.real() + xkk.real());
    const double ei = 0.5 * (xk.imag() - xkk.imag());
    const double dr = 0.5 * (xk.real() - xkk.real());
    const double di = 0.5 * (xk.imag() + xkk.imag());
    const cd w = split[k];
    const double odr = dr * w.real() + di * w.imag();
    const double odi = -dr * w.imag() + di * w.real();
    spectrum[k] = {er - odi, ei + odr};
    spectrum[kk] = {er + odi, odr - ei};
  }
}

void conj_multiply(const cd* a, const cd* b, cd* out, std::size_t n) {
  const double* A = reinterpret_cast<const double*>(a);
  const double* B = reinterpret_cast<const double*>(b);
  double* O = reinterpret_cast<double*>(out);
  const __m256d neg = imag_neg();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d av = _mm256_loadu_pd(A + 2 * i);
    const __m256d bv = _mm256_loadu_pd(B + 2 * i);
    // [ar*br + ai*bi, ai*br - ar*bi]
    const __m256d t1 = _mm256_mul_pd(av, _mm256_movedup_pd(bv));
    const __m256d t2 = _mm256_mul_pd(_mm256_permute_pd(av, 0x5),
                                     _mm256_permute_pd(bv, 0xF));
    _mm256_storeu_pd(O + 2 * i, _mm256_add_pd(t1, _mm256_xor_pd(t2, neg)));
  }
  for (; i < n; ++i) {
    const double ar = a[i].real();
    const double ai = a[i].imag();
    const double br = b[i].real();
    const double bi = b[i].imag();
    out[i] = {ar * br + ai * bi, ai * br - ar * bi};
  }
}

void complex_scale(cd* data, std::size_t n, double alpha) {
  double* d = reinterpret_cast<double*>(data);
  const std::size_t m = 2 * n;
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i), av));
  }
  for (; i < m; ++i) d[i] *= alpha;
}

void scale(double* x, std::size_t n, double alpha) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), av));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), t));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void accumulate(double* acc, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void znorm_apply(double* x, std::size_t n, double mean, double stddev) {
  const __m256d mv = _mm256_set1_pd(mean);
  const __m256d sv = _mm256_set1_pd(stddev);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        x + i, _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i), mv), sv));
  }
  for (; i < n; ++i) x[i] = (x[i] - mean) / stddev;
}

void row_scale(double c, const double* w, const double* jitter,
               const double* presence, double* out, std::size_t n) {
  const __m256d cv = _mm256_set1_pd(c);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_mul_pd(cv, _mm256_loadu_pd(w + i));
    v = _mm256_mul_pd(v, _mm256_loadu_pd(jitter + i));
    v = _mm256_mul_pd(v, _mm256_loadu_pd(presence + i));
    _mm256_storeu_pd(out + i, v);
  }
  for (; i < n; ++i) out[i] = c * w[i] * jitter[i] * presence[i];
}

double max_value(const double* x, std::size_t n) {
  double best = -std::numeric_limits<double>::infinity();
  std::size_t i = 0;
  if (n >= 4) {
    __m256d vbest = _mm256_set1_pd(best);
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(x + i);
      // GT_OQ is false for NaN lanes, so NaNs never replace the running max
      // — same skip rule as the scalar `>` scan.
      const __m256d gt = _mm256_cmp_pd(v, vbest, _CMP_GT_OQ);
      vbest = _mm256_blendv_pd(vbest, v, gt);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vbest);
    for (const double l : lanes) {
      if (l > best) best = l;
    }
  }
  for (; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

std::size_t find_first_equal(const double* x, std::size_t n, double v) {
  const __m256d vv = _mm256_set1_pd(v);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d eq = _mm256_cmp_pd(_mm256_loadu_pd(x + i), vv, _CMP_EQ_OQ);
    const int mask = _mm256_movemask_pd(eq);
    if (mask != 0) {
      return i + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (; i < n; ++i) {
    if (x[i] == v) return i;
  }
  return n;
}

namespace {

/// Widens 4 mask bytes starting at mask[i] to a lane mask that is all-ones
/// where the byte is zero (the *deselected* lanes).
inline __m256d zero_lanes(const std::uint8_t* mask, std::size_t i) noexcept {
  std::uint32_t m4;
  std::memcpy(&m4, mask + i, sizeof(m4));
  const __m256i wide =
      _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(m4)));
  return _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(wide, _mm256_setzero_si256()));
}

}  // namespace

// The striped-sum kernels realize the lane contract literally: the vector
// accumulator *is* the four lanes, a block of 4 loads puts element i into
// lane (i & 3), and the tail/combine run the same scalar adds as the
// reference implementation.

double sum_stripes(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) lane[i & 3] += x[i];
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

double masked_sum_stripes(const double* x, const std::uint8_t* mask,
                          std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // andnot zeroes deselected lanes — the +0.0 contribution the scalar
    // reference adds for masked-out elements.
    const __m256d v =
        _mm256_andnot_pd(zero_lanes(mask, i), _mm256_loadu_pd(x + i));
    acc = _mm256_add_pd(acc, v);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) lane[i & 3] += mask[i] != 0 ? x[i] : 0.0;
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

double masked_max(const double* x, const std::uint8_t* mask, std::size_t n) {
  double best = -std::numeric_limits<double>::infinity();
  std::size_t i = 0;
  if (n >= 4) {
    __m256d vbest = _mm256_set1_pd(best);
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(x + i);
      // GT_OQ is false for NaN lanes (NaNs never win), and deselected lanes
      // are stripped before the blend.
      const __m256d gt = _mm256_cmp_pd(v, vbest, _CMP_GT_OQ);
      vbest = _mm256_blendv_pd(vbest, v, _mm256_andnot_pd(zero_lanes(mask, i), gt));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vbest);
    for (const double l : lanes) {
      if (l > best) best = l;
    }
  }
  for (; i < n; ++i) {
    if (mask[i] != 0 && x[i] > best) best = x[i];
  }
  return best;
}

namespace {

/// PCLMULQDQ folding over data[0, n) for n >= 64 and n % 16 == 0, in the
/// bit-reflected domain (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel 2009). Takes and returns
/// the running (pre-inverted) CRC-32 state, like scalar::crc32_update.
std::uint32_t crc32_fold(std::uint32_t state, const std::byte* data,
                         std::size_t n) noexcept {
  // Gopal et al.'s constants for the reflected CRC-32 polynomial, all
  // bit-reflected: k1/k2 fold a 128-bit lane across 512 bits, k3/k4 across
  // 128 bits, k5 folds 64 bits down to 32, and the last pair is P(x) and the
  // Barrett constant mu = floor(x^64 / P(x)).
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Unaligned loads throughout: the section table starts at file offset 80,
  // and a span may start anywhere.
  const auto load = [](const std::byte* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // One 128-bit fold: x * x^k (low and high halves multiplied by their
  // constants) plus the next block.
  const auto fold = [](__m128i x, __m128i k, __m128i next) {
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
  };

  __m128i x0 = _mm_xor_si128(load(data),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(data + 16);
  __m128i x2 = load(data + 32);
  __m128i x3 = load(data + 48);
  data += 64;
  n -= 64;

  // Four independent lanes, 64 bytes per step.
  for (; n >= 64; n -= 64, data += 64) {
    x0 = fold(x0, k1k2, load(data));
    x1 = fold(x1, k1k2, load(data + 16));
    x2 = fold(x2, k1k2, load(data + 32));
    x3 = fold(x3, k1k2, load(data + 48));
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; n -= 16, data += 16) x0 = fold(x0, k3k4, load(data));

  // 128 -> 64 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

  // Barrett reduction 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

}  // namespace

std::uint32_t crc32(const std::byte* data, std::size_t n) {
  std::uint32_t state = 0xFFFFFFFFu;
  if (n >= 64) {
    const std::size_t folded = n & ~std::size_t{15};
    state = crc32_fold(state, data, folded);
    data += folded;
    n -= folded;
  }
  return scalar::crc32_update(state, data, n) ^ 0xFFFFFFFFu;
}

namespace {

// Lane-wise mirrors of simd.cpp's noise_log, noise_sincos_2pi and
// noise_exp: the same IEEE operations in the same order, so every lane
// returns the scalar reference's bits. Integer-to-double conversions go
// through the 2^52 bit trick; they are exact, as the scalar casts are.

inline __m256d splat(double v) noexcept { return _mm256_set1_pd(v); }
inline __m256i splat_u64(std::uint64_t v) noexcept {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// Exact double of each 64-bit lane, which must be below 2^53.
inline __m256d u53_to_double(__m256i v) noexcept {
  const __m256i two52_bits = splat_u64(std::bit_cast<std::uint64_t>(0x1p52));
  const __m256d two52 = splat(0x1p52);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_and_si256(v, splat_u64(0xffffffffu)), two52_bits)),
      two52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(v, 32), two52_bits)),
      two52);
  return _mm256_add_pd(_mm256_mul_pd(hi, splat(0x1p32)), lo);
}

inline __m256d log_lanes(__m256d x) noexcept {
  using namespace noise;
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i high =
      _mm256_add_epi64(_mm256_srli_epi64(bits, 32), splat_u64(kLogHighShift));
  // (2^52 + e) - (2^52 + 1023) = k, e = high >> 20 the biased exponent.
  const __m256d k = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_srli_epi64(high, 20),
          splat_u64(std::bit_cast<std::uint64_t>(0x1p52)))),
      splat(0x1p52 + 1023.0));
  const __m256i reduced = _mm256_or_si256(
      _mm256_slli_epi64(
          _mm256_add_epi64(_mm256_and_si256(high, splat_u64(0xfffffu)),
                           splat_u64(kLogHighBase)),
          32),
      _mm256_and_si256(bits, splat_u64(0xffffffffu)));
  const __m256d f = _mm256_sub_pd(_mm256_castsi256_pd(reduced), splat(1.0));
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(splat(0.5), f), f);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(splat(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(
      w, _mm256_add_pd(splat(kLg2),
                       _mm256_mul_pd(w, _mm256_add_pd(splat(kLg4),
                                                      _mm256_mul_pd(w, splat(kLg6))))));
  const __m256d t2 = _mm256_mul_pd(
      z, _mm256_add_pd(
             splat(kLg1),
             _mm256_mul_pd(
                 w, _mm256_add_pd(
                        splat(kLg3),
                        _mm256_mul_pd(w, _mm256_add_pd(splat(kLg5),
                                                       _mm256_mul_pd(w, splat(kLg7))))))));
  const __m256d r = _mm256_add_pd(t2, t1);
  __m256d acc = _mm256_mul_pd(s, _mm256_add_pd(hfsq, r));
  acc = _mm256_add_pd(acc, _mm256_mul_pd(k, splat(kLn2Lo)));
  acc = _mm256_sub_pd(acc, hfsq);
  acc = _mm256_add_pd(acc, f);
  return _mm256_add_pd(acc, _mm256_mul_pd(k, splat(kLn2Hi)));
}

inline void sincos_2pi_lanes(__m256d u, __m256d* sin_out,
                             __m256d* cos_out) noexcept {
  using namespace noise;
  const __m256d t =
      _mm256_add_pd(_mm256_mul_pd(splat(4.0), u), splat(kRoundShifter));
  const __m256d q = _mm256_sub_pd(t, splat(kRoundShifter));
  const __m256d x = _mm256_mul_pd(
      _mm256_sub_pd(u, _mm256_mul_pd(splat(0.25), q)), splat(kTwoPi));
  const __m256d z = _mm256_mul_pd(x, x);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d rs = _mm256_add_pd(
      _mm256_add_pd(splat(kS2),
                    _mm256_mul_pd(z, _mm256_add_pd(splat(kS3),
                                                   _mm256_mul_pd(z, splat(kS4))))),
      _mm256_mul_pd(_mm256_mul_pd(z, w),
                    _mm256_add_pd(splat(kS5), _mm256_mul_pd(z, splat(kS6)))));
  const __m256d sin_x = _mm256_add_pd(
      x, _mm256_mul_pd(_mm256_mul_pd(z, x),
                       _mm256_add_pd(splat(kS1), _mm256_mul_pd(z, rs))));
  const __m256d rc = _mm256_add_pd(
      _mm256_mul_pd(
          z, _mm256_add_pd(
                 splat(kC1),
                 _mm256_mul_pd(z, _mm256_add_pd(splat(kC2),
                                                _mm256_mul_pd(z, splat(kC3)))))),
      _mm256_mul_pd(
          _mm256_mul_pd(w, w),
          _mm256_add_pd(
              splat(kC4),
              _mm256_mul_pd(z, _mm256_add_pd(splat(kC5),
                                             _mm256_mul_pd(z, splat(kC6)))))));
  const __m256d hz = _mm256_mul_pd(splat(0.5), z);
  const __m256d one_minus_hz = _mm256_sub_pd(splat(1.0), hz);
  const __m256d cos_x = _mm256_add_pd(
      one_minus_hz,
      _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(splat(1.0), one_minus_hz), hz),
                    _mm256_mul_pd(z, rc)));
  // Quarter turns: bit 0 of q swaps (blend on a sign-bit mask), bit 1 of q
  // negates sin and bit 1 of q + 1 negates cos (sign-bit xor).
  const __m256i quarter =
      _mm256_and_si256(_mm256_castpd_si256(t), splat_u64(3));
  const __m256d swap = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(quarter, splat_u64(1)), 63));
  const __m256d a = _mm256_blendv_pd(sin_x, cos_x, swap);
  const __m256d b = _mm256_blendv_pd(cos_x, sin_x, swap);
  const __m256d sin_sign = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(quarter, splat_u64(2)), 62));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(quarter, splat_u64(1)), splat_u64(2)),
      62));
  *sin_out = _mm256_xor_pd(a, sin_sign);
  *cos_out = _mm256_xor_pd(b, cos_sign);
}

inline __m256d exp_lanes(__m256d x) noexcept {
  using namespace noise;
  // max_pd(a, b) is a > b ? a : b and min_pd(a, b) is a < b ? a : b, the
  // scalar clamps' exact selections (a NaN x passes through both).
  __m256d xc = _mm256_max_pd(splat(kExpClampLo), x);
  xc = _mm256_min_pd(splat(kExpClampHi), xc);
  const __m256d t =
      _mm256_add_pd(_mm256_mul_pd(xc, splat(kInvLn2)), splat(kExpShifter));
  const __m256d k = _mm256_sub_pd(t, splat(kExpShifter));
  const __m256d hi = _mm256_sub_pd(xc, _mm256_mul_pd(k, splat(kLn2Hi)));
  const __m256d lo = _mm256_mul_pd(k, splat(kLn2Lo));
  const __m256d r = _mm256_sub_pd(hi, lo);
  const __m256d rr = _mm256_mul_pd(r, r);
  __m256d p = _mm256_add_pd(splat(kP4), _mm256_mul_pd(rr, splat(kP5)));
  p = _mm256_add_pd(splat(kP3), _mm256_mul_pd(rr, p));
  p = _mm256_add_pd(splat(kP2), _mm256_mul_pd(rr, p));
  p = _mm256_add_pd(splat(kP1), _mm256_mul_pd(rr, p));
  const __m256d c = _mm256_sub_pd(r, _mm256_mul_pd(rr, p));
  const __m256d y = _mm256_add_pd(
      splat(1.0),
      _mm256_add_pd(
          _mm256_sub_pd(_mm256_div_pd(_mm256_mul_pd(r, c),
                                      _mm256_sub_pd(splat(2.0), c)),
                        lo),
          hi));
  const __m256i biased = _mm256_sub_epi64(
      _mm256_castpd_si256(t), splat_u64(std::bit_cast<std::uint64_t>(kRoundShifter)));
  const __m256i half = _mm256_srli_epi64(biased, 1);
  const __m256d scale1 = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_sub_epi64(half, splat_u64(1)), 52));
  const __m256d scale2 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_sub_epi64(_mm256_sub_epi64(biased, half), splat_u64(1)), 52));
  __m256d result = _mm256_mul_pd(_mm256_mul_pd(y, scale1), scale2);
  result = _mm256_blendv_pd(
      result, splat(std::numeric_limits<double>::infinity()),
      _mm256_cmp_pd(x, splat(kExpOverflow), _CMP_GT_OQ));
  return _mm256_blendv_pd(result, _mm256_setzero_pd(),
                          _mm256_cmp_pd(x, splat(kExpUnderflow), _CMP_LT_OQ));
}

}  // namespace

void lognormal_philox(std::uint32_t key0, std::uint32_t key1,
                      std::uint32_t c1, std::uint32_t c2, std::uint32_t c3,
                      double mu, double sigma, double* out, std::size_t n) {
  using namespace noise;
  using util::kPhiloxRounds;
  // Round keys, bumped by the Weyl increments before rounds 2..10.
  __m256i round_key0[kPhiloxRounds];
  __m256i round_key1[kPhiloxRounds];
  std::uint32_t k0 = key0;
  std::uint32_t k1 = key1;
  for (int round = 0; round < kPhiloxRounds; ++round) {
    if (round > 0) {
      k0 += util::kPhiloxW0;
      k1 += util::kPhiloxW1;
    }
    round_key0[round] = splat_u64(k0);
    round_key1[round] = splat_u64(k1);
  }
  const __m256i m0 = splat_u64(util::kPhiloxM0);
  const __m256i m1 = splat_u64(util::kPhiloxM1);
  const __m256i lanes = _mm256_set_epi64x(3, 2, 1, 0);
  const __m256d mu_v = splat(mu);
  const __m256d sigma_v = splat(sigma);

  // Four Philox blocks per vector, one block per 64-bit lane with its word
  // in the low half. One vector's ten rounds are a chain of dependent
  // multiplies, so each step runs three independent vectors (24 values)
  // side by side, phase by phase, and keeps their twelve state words in
  // registers. vpmuludq reads only the low halves, so the rounds leave the
  // high halves unmasked (they carry earlier products' high words); the
  // blends after the last round take only the low halves. The initial
  // word 0, j + lane, is read only by vpmuludq, which wraps it to 32 bits
  // as the scalar cast does.
  constexpr std::size_t kVectors = 3;
  constexpr std::size_t kStepValues = 8 * kVectors;
  const std::size_t blocks = (n + 1) / 2;
  for (std::size_t j = 0; j < blocks; j += 4 * kVectors) {
    __m256i w0[kVectors];
    __m256i w1[kVectors];
    __m256i w2[kVectors];
    __m256i w3[kVectors];
    for (std::size_t v = 0; v < kVectors; ++v) {
      w0[v] = _mm256_add_epi64(splat_u64(j + 4 * v), lanes);
      w1[v] = splat_u64(c1);
      w2[v] = splat_u64(c2);
      w3[v] = splat_u64(c3);
    }
    for (int round = 0; round < kPhiloxRounds; ++round) {
      for (std::size_t v = 0; v < kVectors; ++v) {
        const __m256i p0 = _mm256_mul_epu32(w0[v], m0);
        const __m256i p1 = _mm256_mul_epu32(w2[v], m1);
        w0[v] = _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p1, 32), w1[v]),
                                 round_key0[round]);
        w1[v] = p1;
        w2[v] = _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p0, 32), w3[v]),
                                 round_key1[round]);
        w3[v] = p0;
      }
    }
    __m256d u1[kVectors];
    __m256d u2[kVectors];
    for (std::size_t v = 0; v < kVectors; ++v) {
      // w1 * 2^32 + w0 and w3 * 2^32 + w2: each blend takes a lane's low
      // half from w0 (w2) and its high half from w1's (w3's) low half.
      const __m256i m1_bits = _mm256_add_epi64(
          _mm256_srli_epi64(
              _mm256_blend_epi32(w0[v], _mm256_slli_epi64(w1[v], 32), 0xaa), 11),
          splat_u64(1));
      const __m256i m2_bits = _mm256_srli_epi64(
          _mm256_blend_epi32(w2[v], _mm256_slli_epi64(w3[v], 32), 0xaa), 11);
      u1[v] = _mm256_mul_pd(u53_to_double(m1_bits), splat(kUnitScale));
      u2[v] = _mm256_mul_pd(u53_to_double(m2_bits), splat(kUnitScale));
    }
    __m256d r[kVectors];
    for (std::size_t v = 0; v < kVectors; ++v) {
      r[v] = _mm256_sqrt_pd(_mm256_mul_pd(splat(-2.0), log_lanes(u1[v])));
    }
    __m256d sin_2pi[kVectors];
    __m256d cos_2pi[kVectors];
    for (std::size_t v = 0; v < kVectors; ++v) {
      sincos_2pi_lanes(u2[v], &sin_2pi[v], &cos_2pi[v]);
    }
    // The last step may pass n: it goes through a buffer, and only its
    // first n - at values are copied out.
    alignas(32) double step[kStepValues];
    const std::size_t at = 2 * j;
    double* const dst = at + kStepValues <= n ? out + at : step;
    for (std::size_t v = 0; v < kVectors; ++v) {
      const __m256d even = exp_lanes(_mm256_add_pd(
          mu_v, _mm256_mul_pd(sigma_v, _mm256_mul_pd(r[v], cos_2pi[v]))));
      const __m256d odd = exp_lanes(_mm256_add_pd(
          mu_v, _mm256_mul_pd(sigma_v, _mm256_mul_pd(r[v], sin_2pi[v]))));
      // {e0, o0, e1, o1} and {e2, o2, e3, o3}: eight outputs in order.
      const __m256d lo_pairs = _mm256_unpacklo_pd(even, odd);
      const __m256d hi_pairs = _mm256_unpackhi_pd(even, odd);
      _mm256_storeu_pd(dst + 8 * v,
                       _mm256_permute2f128_pd(lo_pairs, hi_pairs, 0x20));
      _mm256_storeu_pd(dst + 8 * v + 4,
                       _mm256_permute2f128_pd(lo_pairs, hi_pairs, 0x31));
    }
    if (dst == step) std::memcpy(out + at, step, (n - at) * sizeof(double));
  }
}

bool cpu_supported() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul");
}

const Kernels& table() noexcept {
  static constexpr Kernels kTable = {
      "avx2",        fft_passes, rfft_untangle, rfft_retangle,
      conj_multiply, complex_scale, scale,      axpy,
      accumulate,    znorm_apply, row_scale,    max_value,
      find_first_equal, sum_stripes, masked_sum_stripes, masked_max,
      crc32,         lognormal_philox,
  };
  return kTable;
}

}  // namespace avx2

}  // namespace appscope::la::simd
