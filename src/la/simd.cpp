// Scalar reference kernels + dispatch selection for la::simd.
//
// The scalar kernels are the determinism anchor: they perform exactly the
// operation sequences the pre-SIMD inline loops performed, and every other
// implementation must reproduce their bits. Keep them boring — any change
// here changes results project-wide.
#include "la/simd.hpp"

#if defined(__FMA__) || defined(__FMA4__) || defined(__AVX512F__)
#error "simd.cpp must be compiled without FMA (-mno-fma -mno-fma4 -mno-avx512f)"
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>

#include "la/simd_noise.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace appscope::la::simd {

namespace scalar {

void fft_passes(std::complex<double>* data, std::size_t n,
                const std::complex<double>* stage_twiddles, bool inverse) {
  // Butterflies with stage-packed table twiddles, written out in
  // real/imaginary form so they compile to plain arithmetic instead of the
  // checked library complex multiply.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::complex<double>* tw = stage_twiddles + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> w = tw[k];
        const double wr = w.real();
        const double wi = inverse ? -w.imag() : w.imag();
        const std::complex<double> u = data[i + k];
        const std::complex<double> b = data[i + k + half];
        const double vr = b.real() * wr - b.imag() * wi;
        const double vi = b.real() * wi + b.imag() * wr;
        data[i + k] = {u.real() + vr, u.imag() + vi};
        data[i + k + half] = {u.real() - vr, u.imag() - vi};
      }
    }
  }
}

void rfft_untangle(std::complex<double>* spectrum,
                   const std::complex<double>* split, std::size_t h) {
  for (std::size_t k = 1; k < h - k; ++k) {
    const std::size_t kk = h - k;
    const std::complex<double> zk = spectrum[k];
    const std::complex<double> zkk = spectrum[kk];
    const double er = 0.5 * (zk.real() + zkk.real());
    const double ei = 0.5 * (zk.imag() - zkk.imag());
    // O[k] = (Z[k] - conj(Z[kk])) / (2i)
    const double odr = 0.5 * (zk.imag() + zkk.imag());
    const double odi = -0.5 * (zk.real() - zkk.real());
    const std::complex<double> w = split[k];
    const double tr = odr * w.real() - odi * w.imag();
    const double ti = odr * w.imag() + odi * w.real();
    // X[h-k] = conj(E[k] - w^k O[k])
    spectrum[k] = {er + tr, ei + ti};
    spectrum[kk] = {er - tr, -(ei - ti)};
  }
}

void rfft_retangle(std::complex<double>* spectrum,
                   const std::complex<double>* split, std::size_t h) {
  for (std::size_t k = 1; k < h - k; ++k) {
    const std::size_t kk = h - k;
    const std::complex<double> xk = spectrum[k];
    const std::complex<double> xkk = spectrum[kk];
    const double er = 0.5 * (xk.real() + xkk.real());
    const double ei = 0.5 * (xk.imag() - xkk.imag());
    const double dr = 0.5 * (xk.real() - xkk.real());
    const double di = 0.5 * (xk.imag() + xkk.imag());
    const std::complex<double> w = split[k];  // conj applied inline
    const double odr = dr * w.real() + di * w.imag();
    const double odi = -dr * w.imag() + di * w.real();
    // Z[k] = E + iO; Z[h-k] = conj(E) + i conj(O)
    spectrum[k] = {er - odi, ei + odr};
    spectrum[kk] = {er + odi, odr - ei};
  }
}

void conj_multiply(const std::complex<double>* a, const std::complex<double>* b,
                   std::complex<double>* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a[i].real();
    const double ai = a[i].imag();
    const double br = b[i].real();
    const double bi = b[i].imag();
    out[i] = {ar * br + ai * bi, ai * br - ar * bi};
  }
}

void complex_scale(std::complex<double>* data, std::size_t n, double alpha) {
  for (std::size_t i = 0; i < n; ++i) data[i] *= alpha;
}

void scale(double* x, std::size_t n, double alpha) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void accumulate(double* acc, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i];
}

void znorm_apply(double* x, std::size_t n, double mean, double stddev) {
  for (std::size_t i = 0; i < n; ++i) x[i] = (x[i] - mean) / stddev;
}

void row_scale(double c, const double* w, const double* jitter,
               const double* presence, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = c * w[i] * jitter[i] * presence[i];
  }
}

double max_value(const double* x, std::size_t n) {
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

std::size_t find_first_equal(const double* x, std::size_t n, double v) {
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] == v) return i;
  }
  return n;
}

// The 4-lane striped reduction tree is the kernel contract (see simd.hpp):
// lane (i & 3) accumulates element i in index order, lanes combine as
// (l0 + l2) + (l1 + l3). The AVX2 kernels hold the same four lanes in one
// vector accumulator, so both implementations perform identical IEEE adds.

double sum_stripes(const double* x, std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) lane[i & 3] += x[i];
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

double masked_sum_stripes(const double* x, const std::uint8_t* mask,
                          std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    lane[i & 3] += mask[i] != 0 ? x[i] : 0.0;
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

double masked_max(const double* x, const std::uint8_t* mask, std::size_t n) {
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] != 0 && x[i] > best) best = x[i];
  }
  return best;
}

namespace {

/// Slicing-by-8 tables for the reflected CRC-32 polynomial: table 0 is the
/// classic bytewise table, and entry b of table k advances entry b of table
/// k - 1 by one more zero byte, so one step folds eight input bytes with
/// eight lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = t[k - 1][b];
      t[k][b] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian 32-bit word from four bytes, independent of host order.
inline std::uint32_t load_le32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, const std::byte* data,
                           std::size_t n) noexcept {
  const CrcTables& t = kCrcTables;
  for (; n >= 8; n -= 8, data += 8) {
    const std::uint32_t lo = load_le32(data) ^ state;
    const std::uint32_t hi = load_le32(data + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++data) {
    state = t[0][(state ^ static_cast<std::uint32_t>(*data)) & 0xFFu] ^
            (state >> 8);
  }
  return state;
}

std::uint32_t crc32(const std::byte* data, std::size_t n) {
  return crc32_update(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

namespace {

// The noise kernel's elementary functions, inline here so the kernel's
// batched loops below can overlap (and vectorize) them; the exported
// noise_log, noise_sincos_2pi and noise_exp call them too. These are the
// operation sequences the AVX2 kernel mirrors lane by lane
// (simd_avx2.cpp): change both or neither.

inline double log_poly(double x) noexcept {
  using namespace noise;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t high = (bits >> 32) + kLogHighShift;
  const double k = static_cast<double>(
      static_cast<std::int64_t>(high >> 20) - 0x3ff);
  const std::uint64_t reduced =
      ((high & 0xfffffu) + kLogHighBase) << 32 | (bits & 0xffffffffu);
  const double f = std::bit_cast<double>(reduced) - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  return s * (hfsq + r) + k * kLn2Lo - hfsq + f + k * kLn2Hi;
}

inline void sincos_2pi_poly(double u, double* sin_out,
                            double* cos_out) noexcept {
  using namespace noise;
  const double t = 4.0 * u + kRoundShifter;
  const double q = t - kRoundShifter;
  const double x = (u - 0.25 * q) * kTwoPi;
  const double z = x * x;
  const double w = z * z;
  const double rs = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
  const double sin_x = x + z * x * (kS1 + z * rs);
  const double rc = z * (kC1 + z * (kC2 + z * kC3)) +
                    w * w * (kC4 + z * (kC5 + z * kC6));
  const double hz = 0.5 * z;
  const double one_minus_hz = 1.0 - hz;
  const double cos_x = one_minus_hz + (((1.0 - one_minus_hz) - hz) + z * rc);
  // Quarter turns q mod 4, read from the shifted sum's low mantissa bits:
  // an odd q swaps sin and cos, q in {2, 3} negates sin, q in {1, 2} cos.
  const std::uint64_t quarter = std::bit_cast<std::uint64_t>(t) & 3u;
  const double a = (quarter & 1u) != 0 ? cos_x : sin_x;
  const double b = (quarter & 1u) != 0 ? sin_x : cos_x;
  *sin_out = (quarter & 2u) != 0 ? -a : a;
  *cos_out = ((quarter + 1) & 2u) != 0 ? -b : b;
}

inline double exp_poly(double x) noexcept {
  using namespace noise;
  double xc = kExpClampLo > x ? kExpClampLo : x;
  xc = kExpClampHi < xc ? kExpClampHi : xc;
  const double t = xc * kInvLn2 + kExpShifter;
  const double k = t - kExpShifter;
  const double hi = xc - k * kLn2Hi;
  const double lo = k * kLn2Lo;
  const double r = hi - lo;
  const double rr = r * r;
  const double c = r - rr * (kP1 + rr * (kP2 + rr * (kP3 + rr * (kP4 + rr * kP5))));
  const double y = 1.0 + (r * c / (2.0 - c) - lo + hi);
  // k + 2048 from the mantissa; 2^k1 and 2^(k - k1) as exponent fields.
  const std::uint64_t biased = std::bit_cast<std::uint64_t>(t) -
                               std::bit_cast<std::uint64_t>(kRoundShifter);
  const std::uint64_t half = biased >> 1;
  const double scale1 = std::bit_cast<double>((half - 1) << 52);
  const double scale2 = std::bit_cast<double>((biased - half - 1) << 52);
  double result = y * scale1 * scale2;
  if (x > kExpOverflow) result = std::numeric_limits<double>::infinity();
  if (x < kExpUnderflow) result = 0.0;
  return result;
}

}  // namespace

void lognormal_philox(std::uint32_t key0, std::uint32_t key1,
                      std::uint32_t c1, std::uint32_t c2, std::uint32_t c3,
                      double mu, double sigma, double* out, std::size_t n) {
  // Blocks in batches, one phase at a time: a block is one long dependent
  // chain, and independent blocks side by side let the chains overlap.
  // Every value still takes the same operations.
  constexpr std::size_t kBatch = 8;
  double u1[kBatch];
  double u2[kBatch];
  double r[kBatch];
  double sin_2pi[kBatch];
  double cos_2pi[kBatch];
  const std::size_t blocks = (n + 1) / 2;
  for (std::size_t j0 = 0; j0 < blocks; j0 += kBatch) {
    const std::size_t m = std::min(kBatch, blocks - j0);
    for (std::size_t k = 0; k < m; ++k) {
      const std::array<std::uint32_t, 4> w = util::philox4x32_10(
          {static_cast<std::uint32_t>(j0 + k), c1, c2, c3}, {key0, key1});
      const std::uint64_t m1 =
          ((std::uint64_t{w[1]} << 32 | w[0]) >> 11) + 1;  // [1, 2^53]
      const std::uint64_t m2 = (std::uint64_t{w[3]} << 32 | w[2]) >> 11;
      u1[k] = static_cast<double>(m1) * noise::kUnitScale;
      u2[k] = static_cast<double>(m2) * noise::kUnitScale;
    }
    for (std::size_t k = 0; k < m; ++k) {
      r[k] = std::sqrt(-2.0 * log_poly(u1[k]));
    }
    for (std::size_t k = 0; k < m; ++k) {
      sincos_2pi_poly(u2[k], &sin_2pi[k], &cos_2pi[k]);
    }
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = 2 * (j0 + k);
      out[i] = exp_poly(mu + sigma * (r[k] * cos_2pi[k]));
      if (i + 1 < n) out[i + 1] = exp_poly(mu + sigma * (r[k] * sin_2pi[k]));
    }
  }
}

const Kernels& table() noexcept {
  static constexpr Kernels kTable = {
      "scalar",      fft_passes, rfft_untangle, rfft_retangle,
      conj_multiply, complex_scale, scale,      axpy,
      accumulate,    znorm_apply, row_scale,    max_value,
      find_first_equal, sum_stripes, masked_sum_stripes, masked_max,
      crc32,         lognormal_philox,
  };
  return kTable;
}

}  // namespace scalar

double noise_log(double x) noexcept { return scalar::log_poly(x); }

void noise_sincos_2pi(double u, double* sin_out, double* cos_out) noexcept {
  scalar::sincos_2pi_poly(u, sin_out, cos_out);
}

double noise_exp(double x) noexcept { return scalar::exp_poly(x); }

#if defined(APPSCOPE_SIMD_AVX2)
namespace avx2 {
// Defined in simd_avx2.cpp (compiled with -mavx2).
const Kernels& table() noexcept;
bool cpu_supported() noexcept;
}  // namespace avx2
#endif

namespace {

std::atomic<const Kernels*> g_active{nullptr};
std::once_flag g_init_once;

const Kernels* table_for(Dispatch d) noexcept {
  switch (d) {
    case Dispatch::kScalar:
      return &scalar::table();
    case Dispatch::kAvx2:
#if defined(APPSCOPE_SIMD_AVX2)
      if (avx2::cpu_supported()) return &avx2::table();
#endif
      return nullptr;
  }
  return nullptr;
}

const Kernels* resolve_initial() {
  if (const char* env = std::getenv("APPSCOPE_SIMD");
      env != nullptr && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) return &scalar::table();
    if (std::strcmp(env, "avx2") == 0) {
      if (const Kernels* t = table_for(Dispatch::kAvx2)) return t;
      std::fprintf(stderr,
                   "appscope: APPSCOPE_SIMD=avx2 requested but AVX2 is "
                   "unavailable on this build/CPU; using scalar kernels\n");
      return &scalar::table();
    }
    std::fprintf(stderr,
                 "appscope: unknown APPSCOPE_SIMD value '%s' "
                 "(expected avx2|scalar); using default dispatch\n",
                 env);
  }
  if (const Kernels* t = table_for(Dispatch::kAvx2)) return t;
  return &scalar::table();
}

const Kernels* load_active() noexcept {
  const Kernels* t = g_active.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  std::call_once(g_init_once, [] {
    const Kernels* expected = nullptr;
    const Kernels* resolved = resolve_initial();
    g_active.compare_exchange_strong(expected, resolved,
                                     std::memory_order_acq_rel);
  });
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const Kernels& active() noexcept { return *load_active(); }

Dispatch active_dispatch() noexcept {
  return load_active() == &scalar::table() ? Dispatch::kScalar : Dispatch::kAvx2;
}

const char* active_name() noexcept { return load_active()->name; }

bool avx2_available() noexcept {
  return table_for(Dispatch::kAvx2) != nullptr;
}

void set_dispatch(Dispatch d) {
  const Kernels* t = table_for(d);
  APPSCOPE_REQUIRE(t != nullptr,
                   "simd: requested dispatch unavailable on this build/CPU");
  load_active();  // ensure the once-init happened so a store sticks
  g_active.store(t, std::memory_order_release);
}

const Kernels& kernels_for(Dispatch d) {
  const Kernels* t = table_for(d);
  APPSCOPE_REQUIRE(t != nullptr,
                   "simd: requested dispatch unavailable on this build/CPU");
  return *t;
}

void record_dispatch_metric() {
  if (!util::MetricsRegistry::enabled()) return;
  util::MetricsRegistry::global().add(active_dispatch() == Dispatch::kAvx2
                                          ? "la.simd.dispatch.avx2"
                                          : "la.simd.dispatch.scalar");
}

}  // namespace appscope::la::simd
