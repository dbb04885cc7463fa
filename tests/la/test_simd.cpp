#include "la/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "la/aligned.hpp"
#include "util/rng.hpp"

// Bitwise parity of the AVX2 kernel table against the scalar reference.
// Every kernel is elementwise (or an order-independent exact search), so
// the two implementations must agree bit for bit — including on signed
// zeros, infinities, NaNs and denormals, and on lengths that are not a
// multiple of the vector width (the tail path). All comparisons go through
// std::memcmp on the raw doubles; no tolerance anywhere. The one exception
// is the payload of a NaN result, which the adversarial cases of a few
// kernels compare modulo NaN (expect_equal_modulo_nan says which and why).

namespace appscope::la::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

/// Adversarial scalars cycled through the adversarial input vectors.
constexpr double kAdversarial[] = {0.0,  -0.0,    kInf,    -kInf,  kNan,
                                   kDenorm, -kDenorm, 1.0e308, -1.0e-308, 2.5};

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.normal();
  return out;
}

std::vector<double> adversarial_vector(std::size_t n, std::size_t rot) {
  std::vector<double> out(n);
  constexpr std::size_t k = sizeof(kAdversarial) / sizeof(kAdversarial[0]);
  for (std::size_t i = 0; i < n; ++i) out[i] = kAdversarial[(i + rot) % k];
  return out;
}

std::vector<std::complex<double>> complex_vector(std::size_t n,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::complex<double>> out(n);
  for (auto& v : out) v = {rng.normal(), rng.normal()};
  return out;
}

std::vector<std::complex<double>> adversarial_complex(std::size_t n,
                                                      std::size_t rot) {
  std::vector<std::complex<double>> out(n);
  constexpr std::size_t k = sizeof(kAdversarial) / sizeof(kAdversarial[0]);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = {kAdversarial[(2 * i + rot) % k], kAdversarial[(2 * i + 1 + rot) % k]};
  }
  return out;
}

template <typename T>
void expect_bits_equal(const std::vector<T>& scalar_out,
                       const std::vector<T>& avx2_out, const char* what,
                       std::size_t n) {
  ASSERT_EQ(scalar_out.size(), avx2_out.size()) << what << " n=" << n;
  // data() of an empty vector may be null, and memcmp's arguments must not
  // be, even for a zero length.
  if (scalar_out.empty()) return;
  EXPECT_EQ(std::memcmp(scalar_out.data(), avx2_out.data(),
                        scalar_out.size() * sizeof(T)),
            0)
      << what << " diverges at n=" << n;
}

/// Bitwise comparison that treats any two NaNs as equal. Under adversarial
/// NaN inputs both paths produce NaN at the same positions, but the payload
/// bits may differ:
///  - the complex kernels rewrite x - y as x + (-y) (a sign-bit flip), which
///    is exact for every numeric operand but flips the sign bit of a
///    propagated NaN payload;
///  - where two NaNs meet in a commutative add or multiply (in axpy and
///    row_scale, 0·inf's default NaN and an input NaN), x86 keeps the first
///    operand's payload, and the compiler picks the operand order per build.
/// Real pipelines never feed NaN into these kernels; the strict-bitwise
/// contract covers all finite (and infinite) data, and this comparator
/// checks exactly that while still pinning NaN-for-NaN agreement (see the
/// contract note in simd_avx2.cpp).
void expect_equal_modulo_nan(std::span<const double> a,
                             std::span<const double> b, const char* what,
                             std::size_t n) {
  ASSERT_EQ(a.size(), b.size()) << what << " n=" << n;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) == 0) continue;
    EXPECT_TRUE(std::isnan(a[i]) && std::isnan(b[i]))
        << what << " diverges (non-NaN) at component " << i << " for n=" << n;
  }
}

void expect_equal_modulo_nan(const std::vector<std::complex<double>>& a,
                             const std::vector<std::complex<double>>& b,
                             const char* what, std::size_t n) {
  ASSERT_EQ(a.size(), b.size()) << what << " n=" << n;
  expect_equal_modulo_nan(
      {reinterpret_cast<const double*>(a.data()), 2 * a.size()},
      {reinterpret_cast<const double*>(b.data()), 2 * b.size()}, what, n);
}

/// The lengths under test: empty, sub-lane, every misalignment of the
/// 4-wide (real) and 2-wide (complex) kernels, and a couple of longer runs.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                15, 16, 17, 31, 32, 33, 35, 168, 257};

class SimdParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!avx2_available()) {
      GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    }
  }
  const Kernels& s_ = kernels_for(Dispatch::kScalar);
  const Kernels& v_ = avx2_available() ? kernels_for(Dispatch::kAvx2)
                                       : kernels_for(Dispatch::kScalar);
};

TEST_F(SimdParity, Scale) {
  for (const std::size_t n : kLengths) {
    for (const double alpha : {2.0, -0.0, kInf, kNan, kDenorm}) {
      auto a = random_vector(n, 10 + n);
      auto b = a;
      s_.scale(a.data(), n, alpha);
      v_.scale(b.data(), n, alpha);
      expect_bits_equal(a, b, "scale/random", n);

      auto c = adversarial_vector(n, n % 7);
      auto d = c;
      s_.scale(c.data(), n, alpha);
      v_.scale(d.data(), n, alpha);
      expect_bits_equal(c, d, "scale/adversarial", n);
    }
  }
}

TEST_F(SimdParity, Axpy) {
  for (const std::size_t n : kLengths) {
    for (const double alpha : {1.5, -0.0, kInf, kNan}) {
      const auto x = random_vector(n, 20 + n);
      auto ys = random_vector(n, 21 + n);
      auto yv = ys;
      s_.axpy(alpha, x.data(), ys.data(), n);
      v_.axpy(alpha, x.data(), yv.data(), n);
      expect_bits_equal(ys, yv, "axpy/random", n);

      const auto xa = adversarial_vector(n, 1);
      auto yas = adversarial_vector(n, 3);
      auto yav = yas;
      s_.axpy(alpha, xa.data(), yas.data(), n);
      v_.axpy(alpha, xa.data(), yav.data(), n);
      expect_equal_modulo_nan(yas, yav, "axpy/adversarial", n);
    }
  }
}

TEST_F(SimdParity, Accumulate) {
  for (const std::size_t n : kLengths) {
    const auto x = random_vector(n, 30 + n);
    auto as = random_vector(n, 31 + n);
    auto av = as;
    s_.accumulate(as.data(), x.data(), n);
    v_.accumulate(av.data(), x.data(), n);
    expect_bits_equal(as, av, "accumulate/random", n);

    const auto xa = adversarial_vector(n, 2);
    auto aas = adversarial_vector(n, 5);
    auto aav = aas;
    s_.accumulate(aas.data(), xa.data(), n);
    v_.accumulate(aav.data(), xa.data(), n);
    expect_bits_equal(aas, aav, "accumulate/adversarial", n);
  }
}

TEST_F(SimdParity, ZnormApply) {
  for (const std::size_t n : kLengths) {
    for (const double mean : {0.25, -0.0}) {
      for (const double sd : {1.75, kDenorm, kInf}) {
        auto a = random_vector(n, 40 + n);
        auto b = a;
        s_.znorm_apply(a.data(), n, mean, sd);
        v_.znorm_apply(b.data(), n, mean, sd);
        expect_bits_equal(a, b, "znorm_apply/random", n);

        auto c = adversarial_vector(n, 4);
        auto d = c;
        s_.znorm_apply(c.data(), n, mean, sd);
        v_.znorm_apply(d.data(), n, mean, sd);
        expect_bits_equal(c, d, "znorm_apply/adversarial", n);
      }
    }
  }
}

TEST_F(SimdParity, RowScale) {
  for (const std::size_t n : kLengths) {
    for (const double c : {3.0, -0.0, kInf, kNan}) {
      const auto w = random_vector(n, 50 + n);
      const auto jitter = random_vector(n, 51 + n);
      const auto presence = random_vector(n, 52 + n);
      std::vector<double> outs(n), outv(n);
      s_.row_scale(c, w.data(), jitter.data(), presence.data(), outs.data(), n);
      v_.row_scale(c, w.data(), jitter.data(), presence.data(), outv.data(), n);
      expect_bits_equal(outs, outv, "row_scale/random", n);

      const auto wa = adversarial_vector(n, 0);
      const auto ja = adversarial_vector(n, 3);
      const auto pa = adversarial_vector(n, 6);
      s_.row_scale(c, wa.data(), ja.data(), pa.data(), outs.data(), n);
      v_.row_scale(c, wa.data(), ja.data(), pa.data(), outv.data(), n);
      expect_equal_modulo_nan(outs, outv, "row_scale/adversarial", n);
    }
  }
}

TEST_F(SimdParity, ConjMultiply) {
  for (const std::size_t n : kLengths) {
    const auto a = complex_vector(n, 60 + n);
    const auto b = complex_vector(n, 61 + n);
    std::vector<std::complex<double>> outs(n), outv(n);
    s_.conj_multiply(a.data(), b.data(), outs.data(), n);
    v_.conj_multiply(a.data(), b.data(), outv.data(), n);
    expect_bits_equal(outs, outv, "conj_multiply/random", n);

    const auto aa = adversarial_complex(n, 0);
    const auto ba = adversarial_complex(n, 5);
    s_.conj_multiply(aa.data(), ba.data(), outs.data(), n);
    v_.conj_multiply(aa.data(), ba.data(), outv.data(), n);
    expect_equal_modulo_nan(outs, outv, "conj_multiply/adversarial", n);
  }
}

TEST_F(SimdParity, ComplexScale) {
  for (const std::size_t n : kLengths) {
    for (const double alpha : {0.125, -3.0, kDenorm}) {
      auto a = complex_vector(n, 70 + n);
      auto b = a;
      s_.complex_scale(a.data(), n, alpha);
      v_.complex_scale(b.data(), n, alpha);
      expect_bits_equal(a, b, "complex_scale/random", n);
    }
  }
}

/// Stage-packed twiddles for a size-n transform, exactly as FftPlan builds
/// them (fft_plan.cpp): the stage with half-size `half` owns `half`
/// consecutive entries at offset `half - 1`.
std::vector<std::complex<double>> stage_twiddles(std::size_t n) {
  std::vector<std::complex<double>> tw(n >= 2 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t stride = n / len;
    const std::size_t half = len / 2;
    const double step = -2.0 * M_PI / static_cast<double>(n);
    for (std::size_t k = 0; k < half; ++k) {
      const double angle = step * static_cast<double>(k * stride);
      tw[(half - 1) + k] = {std::cos(angle), std::sin(angle)};
    }
  }
  return tw;
}

TEST_F(SimdParity, FftPasses) {
  for (const std::size_t n : {2u, 4u, 8u, 16u, 64u, 512u}) {
    const auto tw = stage_twiddles(n);
    for (const bool inverse : {false, true}) {
      auto a = complex_vector(n, 80 + n);
      auto b = a;
      s_.fft_passes(a.data(), n, tw.data(), inverse);
      v_.fft_passes(b.data(), n, tw.data(), inverse);
      expect_bits_equal(a, b, "fft_passes/random", n);

      auto c = adversarial_complex(n, 1);
      auto d = c;
      s_.fft_passes(c.data(), n, tw.data(), inverse);
      v_.fft_passes(d.data(), n, tw.data(), inverse);
      expect_equal_modulo_nan(c, d, "fft_passes/adversarial", n);
    }
  }
}

/// Split table exp(-pi i k / h) for k in [0, h/2], as RealFftPlan holds it.
std::vector<std::complex<double>> split_table(std::size_t h) {
  std::vector<std::complex<double>> split(h / 2 + 1);
  for (std::size_t k = 0; k < split.size(); ++k) {
    const double angle = -M_PI * static_cast<double>(k) / static_cast<double>(h);
    split[k] = {std::cos(angle), std::sin(angle)};
  }
  return split;
}

TEST_F(SimdParity, RfftUntangleRetangle) {
  // h == 1 (an rfft of size 2) must be a no-op in both kernels: the pair
  // loop has no valid (k, h-k) index and must not wrap its bound.
  for (const std::size_t h : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 17u, 256u}) {
    const auto split = split_table(h);
    auto a = complex_vector(h + 1, 90 + h);
    auto b = a;
    s_.rfft_untangle(a.data(), split.data(), h);
    v_.rfft_untangle(b.data(), split.data(), h);
    expect_bits_equal(a, b, "rfft_untangle/random", h);

    auto c = complex_vector(h + 1, 91 + h);
    auto d = c;
    s_.rfft_retangle(c.data(), split.data(), h);
    v_.rfft_retangle(d.data(), split.data(), h);
    expect_bits_equal(c, d, "rfft_retangle/random", h);

    auto e = adversarial_complex(h + 1, 2);
    auto f = e;
    s_.rfft_untangle(e.data(), split.data(), h);
    v_.rfft_untangle(f.data(), split.data(), h);
    expect_equal_modulo_nan(e, f, "rfft_untangle/adversarial", h);
  }
}

TEST_F(SimdParity, MaxValue) {
  for (const std::size_t n : kLengths) {
    const auto a = random_vector(n, 100 + n);
    const double ms = s_.max_value(a.data(), n);
    const double mv = v_.max_value(a.data(), n);
    EXPECT_EQ(std::memcmp(&ms, &mv, sizeof(double)), 0) << "max_value n=" << n;

    const auto b = adversarial_vector(n, 1);
    const double as = s_.max_value(b.data(), n);
    const double av = v_.max_value(b.data(), n);
    EXPECT_EQ(std::memcmp(&as, &av, sizeof(double)), 0)
        << "max_value/adversarial n=" << n;
  }
  // All-NaN and empty ranges report -inf from both implementations.
  const std::vector<double> nans(13, kNan);
  EXPECT_EQ(s_.max_value(nans.data(), nans.size()), -kInf);
  EXPECT_EQ(v_.max_value(nans.data(), nans.size()), -kInf);
  EXPECT_EQ(s_.max_value(nans.data(), 0), -kInf);
  EXPECT_EQ(v_.max_value(nans.data(), 0), -kInf);
  // Signed-zero ties: +0 and -0 compare equal, so whichever representative
  // wins, the reported maximum compares equal to both.
  const std::vector<double> zeros = {-0.0, 0.0, -0.0, 0.0, -0.0};
  EXPECT_EQ(s_.max_value(zeros.data(), zeros.size()),
            v_.max_value(zeros.data(), zeros.size()));
}

TEST_F(SimdParity, FindFirstEqual) {
  for (const std::size_t n : kLengths) {
    const auto a = random_vector(n, 110 + n);
    for (const std::size_t probe : {std::size_t{0}, n / 2, n}) {
      const double target = probe < n ? a[probe] : 12345.0;
      EXPECT_EQ(s_.find_first_equal(a.data(), n, target),
                v_.find_first_equal(a.data(), n, target))
          << "find_first_equal n=" << n;
    }
    // NaN is never equal to anything, including itself.
    EXPECT_EQ(s_.find_first_equal(a.data(), n, kNan), n);
    EXPECT_EQ(v_.find_first_equal(a.data(), n, kNan), n);
  }
  // IEEE ==: -0 matches +0 in either direction, first index wins.
  const std::vector<double> zeros = {1.0, -0.0, 0.0, -0.0};
  EXPECT_EQ(s_.find_first_equal(zeros.data(), zeros.size(), 0.0), 1u);
  EXPECT_EQ(v_.find_first_equal(zeros.data(), zeros.size(), 0.0), 1u);
  EXPECT_EQ(s_.find_first_equal(zeros.data(), zeros.size(), -0.0), 1u);
  EXPECT_EQ(v_.find_first_equal(zeros.data(), zeros.size(), -0.0), 1u);
}

std::vector<std::uint8_t> mask_pattern(std::size_t n, std::size_t rot) {
  std::vector<std::uint8_t> mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix of 0, 1 and >1 bytes — any non-zero byte selects.
    mask[i] = static_cast<std::uint8_t>((i + rot) % 3 == 0 ? 0 : (i + rot) % 7);
  }
  return mask;
}

TEST_F(SimdParity, SumStripes) {
  for (const std::size_t n : kLengths) {
    const auto a = random_vector(n, 120 + n);
    const double ss = s_.sum_stripes(a.data(), n);
    const double sv = v_.sum_stripes(a.data(), n);
    EXPECT_EQ(std::memcmp(&ss, &sv, sizeof(double)), 0)
        << "sum_stripes n=" << n;

    const auto b = adversarial_vector(n, 2);
    const double as = s_.sum_stripes(b.data(), n);
    const double av = v_.sum_stripes(b.data(), n);
    EXPECT_EQ(std::memcmp(&as, &av, sizeof(double)), 0)
        << "sum_stripes/adversarial n=" << n;
  }
  // Empty range is an exact +0.0 from the empty lane combine.
  const double zero_s = s_.sum_stripes(nullptr, 0);
  const double zero_v = v_.sum_stripes(nullptr, 0);
  EXPECT_EQ(std::memcmp(&zero_s, &zero_v, sizeof(double)), 0);
  EXPECT_EQ(zero_s, 0.0);
}

TEST_F(SimdParity, MaskedSumStripes) {
  for (const std::size_t n : kLengths) {
    const auto a = random_vector(n, 130 + n);
    for (const std::size_t rot : {std::size_t{0}, std::size_t{1},
                                  std::size_t{5}}) {
      const auto mask = mask_pattern(n, rot);
      const double ss = s_.masked_sum_stripes(a.data(), mask.data(), n);
      const double sv = v_.masked_sum_stripes(a.data(), mask.data(), n);
      EXPECT_EQ(std::memcmp(&ss, &sv, sizeof(double)), 0)
          << "masked_sum_stripes n=" << n << " rot=" << rot;

      const auto b = adversarial_vector(n, rot);
      const double as = s_.masked_sum_stripes(b.data(), mask.data(), n);
      const double av = v_.masked_sum_stripes(b.data(), mask.data(), n);
      EXPECT_EQ(std::memcmp(&as, &av, sizeof(double)), 0)
          << "masked_sum_stripes/adversarial n=" << n << " rot=" << rot;
    }
    // All-ones mask must match the unmasked kernel bit for bit: a selected
    // element takes the same lane and the same add in both.
    const std::vector<std::uint8_t> ones(n, 1);
    const double full = s_.sum_stripes(a.data(), n);
    const double masked = s_.masked_sum_stripes(a.data(), ones.data(), n);
    EXPECT_EQ(std::memcmp(&full, &masked, sizeof(double)), 0)
        << "masked == unmasked for all-ones mask, n=" << n;
    // All-zero mask sums to exact +0.0 (every lane adds +0.0).
    const std::vector<std::uint8_t> zeros_mask(n, 0);
    EXPECT_EQ(s_.masked_sum_stripes(a.data(), zeros_mask.data(), n), 0.0);
    EXPECT_EQ(v_.masked_sum_stripes(a.data(), zeros_mask.data(), n), 0.0);
  }
}

TEST_F(SimdParity, MaskedMax) {
  for (const std::size_t n : kLengths) {
    const auto a = random_vector(n, 140 + n);
    for (const std::size_t rot : {std::size_t{0}, std::size_t{2}}) {
      const auto mask = mask_pattern(n, rot);
      const double ms = s_.masked_max(a.data(), mask.data(), n);
      const double mv = v_.masked_max(a.data(), mask.data(), n);
      EXPECT_EQ(std::memcmp(&ms, &mv, sizeof(double)), 0)
          << "masked_max n=" << n << " rot=" << rot;

      const auto b = adversarial_vector(n, rot);
      const double as = s_.masked_max(b.data(), mask.data(), n);
      const double av = v_.masked_max(b.data(), mask.data(), n);
      EXPECT_EQ(std::memcmp(&as, &av, sizeof(double)), 0)
          << "masked_max/adversarial n=" << n << " rot=" << rot;
    }
    // Empty selection (all-zero mask) reports -inf from both.
    const std::vector<std::uint8_t> zeros_mask(n, 0);
    EXPECT_EQ(s_.masked_max(a.data(), zeros_mask.data(), n), -kInf);
    EXPECT_EQ(v_.masked_max(a.data(), zeros_mask.data(), n), -kInf);
  }
  // Selected NaNs never win; an all-NaN selection reports -inf.
  const std::vector<double> nans(9, kNan);
  const std::vector<std::uint8_t> ones(9, 1);
  EXPECT_EQ(s_.masked_max(nans.data(), ones.data(), nans.size()), -kInf);
  EXPECT_EQ(v_.masked_max(nans.data(), ones.data(), nans.size()), -kInf);
}

TEST_F(SimdParity, LognormalPhilox) {
  // Random keys and counters, the generator's and extreme sigmas (mu the
  // generator's unit-mean correction), and every length up to 49: each tail
  // of the AVX2 kernel's 24-value step twice, plus the generator's 168 and
  // 167. Every element must match bit for bit, every call must be a prefix
  // of the 168-value one, and nothing past n may be written.
  constexpr double kSigmas[] = {1e-3, 0.02, 0.05, 0.5, 2.0, 10.0, 40.0};
  std::vector<std::size_t> lengths(50);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(167);
  lengths.push_back(168);
  constexpr std::size_t kFull = 168;
  constexpr double kSentinel = -7.0;
  util::Rng rng(0x9417);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto word = [&rng] { return static_cast<std::uint32_t>(rng.next_u64()); };
    const std::uint32_t key0 = word();
    const std::uint32_t key1 = word();
    const std::uint32_t c1 = word();
    const std::uint32_t c2 = word();
    const std::uint32_t c3 = trial % 2 == 0 ? 0 : word();
    for (const double sigma : kSigmas) {
      const double mu = -0.5 * sigma * sigma;
      std::vector<double> full(kFull);
      s_.lognormal_philox(key0, key1, c1, c2, c3, mu, sigma, full.data(), kFull);
      for (const std::size_t n : lengths) {
        std::vector<double> a(n + 1, kSentinel);
        std::vector<double> b(n + 1, kSentinel);
        s_.lognormal_philox(key0, key1, c1, c2, c3, mu, sigma, a.data(), n);
        v_.lognormal_philox(key0, key1, c1, c2, c3, mu, sigma, b.data(), n);
        EXPECT_EQ(a[n], kSentinel) << "scalar wrote past n=" << n;
        EXPECT_EQ(b[n], kSentinel) << "avx2 wrote past n=" << n;
        a.pop_back();
        b.pop_back();
        expect_bits_equal(a, b, "lognormal_philox", n);
        if (n > 0) {
          EXPECT_EQ(std::memcmp(full.data(), a.data(), n * sizeof(double)), 0)
              << "n=" << n << " is not a prefix of n=" << kFull;
        }
      }
      if (::testing::Test::HasFailure()) return;  // one report per failure
    }
  }
}

TEST(SimdDispatch, TablesAreDistinctWhenAvx2Present) {
  const Kernels& scalar = kernels_for(Dispatch::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
  if (avx2_available()) {
    const Kernels& avx2 = kernels_for(Dispatch::kAvx2);
    EXPECT_STREQ(avx2.name, "avx2");
    EXPECT_NE(&scalar, &avx2);
  }
}

TEST(SimdDispatch, SetDispatchSwitchesActiveTable) {
  const Dispatch original = active_dispatch();
  set_dispatch(Dispatch::kScalar);
  EXPECT_EQ(active_dispatch(), Dispatch::kScalar);
  EXPECT_STREQ(active_name(), "scalar");
  if (avx2_available()) {
    set_dispatch(Dispatch::kAvx2);
    EXPECT_EQ(active_dispatch(), Dispatch::kAvx2);
    EXPECT_STREQ(active_name(), "avx2");
  }
  set_dispatch(original);
}

}  // namespace
}  // namespace appscope::la::simd
