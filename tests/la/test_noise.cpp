// Accuracy and distribution of the generator's noise kernel
// (la::simd::Kernels::lognormal_philox): its polynomial ln, sin/cos and exp
// against the standard library, and the normals it draws against N(0, 1).
// Bitwise parity across dispatch is SimdParity.LognormalPhilox's job.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "la/simd.hpp"
#include "la/simd_noise.hpp"
#include "util/rng.hpp"

namespace appscope::la::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Distance in units in the last place; +0 and -0 are the same point.
std::uint64_t ulps(double a, double b) {
  const auto ordered = [](double d) {
    const auto bits = std::bit_cast<std::int64_t>(d);
    return bits < 0 ? -(bits & std::numeric_limits<std::int64_t>::max()) : bits;
  };
  const std::int64_t x = ordered(a);
  const std::int64_t y = ordered(b);
  return x > y ? static_cast<std::uint64_t>(x - y)
               : static_cast<std::uint64_t>(y - x);
}

/// sin(2 pi v) in long double. std::sin(2 * M_PI * u) in double is no
/// reference near the zeros of sin (the rounded product is off by an ulp
/// of 2 pi u, far more than the result's ulp), so v is first reduced
/// exactly by half turns, sin(2 pi v) = (-1)^m sin(2 pi (v - m/2)) with
/// |v - m/2| <= 1/4, and only then multiplied by 2 pi in 64-bit precision.
long double sin_turns(long double v) {
  constexpr long double kTwoPiL = 6.283185307179586476925286766559005768L;
  const long double m = std::nearbyint(2.0L * v);
  const long double s = std::sin(kTwoPiL * (v - m / 2.0L));
  return std::fmod(m, 2.0L) != 0.0L ? -s : s;
}

TEST(NoiseKernel, ElementaryFunctionsWithinUlps) {
  constexpr std::uint64_t kMaxUlps = 4;
  util::Rng rng(0x5eed);
  std::uint64_t worst_log = 0;
  std::uint64_t worst_sincos = 0;
  std::uint64_t worst_exp = 0;

  // ln over the kernel's u1 = m 2^-53, m in [1, 2^53]: every binade, plus
  // the ends and the reduction's sqrt(2)/2 switch.
  std::vector<double> logs = {0x1p-53, 1.0, std::nextafter(1.0, 0.0), 0.5,
                              std::sqrt(0.5), std::nextafter(std::sqrt(0.5), 0.0),
                              std::nextafter(std::sqrt(0.5), 1.0)};
  for (int e = 1; e <= 53; ++e) {
    for (int i = 0; i < 2000; ++i) {
      logs.push_back(std::ldexp(1.0 + rng.uniform(), -e));
    }
  }
  for (int i = 0; i < 100000; ++i) {
    logs.push_back(static_cast<double>((rng.next_u64() >> 11) + 1) * 0x1p-53);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(noise_log(1.0)), 0u);  // +0
  for (const double x : logs) {
    const std::uint64_t d = ulps(noise_log(x), std::log(x));
    worst_log = std::max(worst_log, d);
    ASSERT_LE(d, kMaxUlps) << "ln(" << x << ")";
  }

  // sin and cos of 2 pi u over u2 = m 2^-53 in [0, 1), every multiple of
  // 1/8 (octant edges and zeros) and its neighbours, and the ends.
  std::vector<double> turns = {0.0, 0x1p-53, 1.0 - 0x1p-53};
  for (int k = 0; k < 8; ++k) {
    const double u = k / 8.0;
    turns.push_back(u);
    if (k > 0) turns.push_back(std::nextafter(u, 0.0));
    turns.push_back(std::nextafter(u, 1.0));
  }
  for (int i = 0; i < 200000; ++i) {
    turns.push_back(static_cast<double>(rng.next_u64() >> 11) * 0x1p-53);
  }
  for (int e = 2; e <= 53; ++e) {  // small turns near each zero
    const double tiny = std::ldexp(1.0 + rng.uniform(), -e);
    for (const double base : {0.0, 0.25, 0.5, 0.75}) {
      if (base + tiny < 1.0) turns.push_back(base + tiny);
      if (base - tiny >= 0.0) turns.push_back(base - tiny);
    }
  }
  for (const double u : turns) {
    double s = 0.0;
    double c = 0.0;
    noise_sincos_2pi(u, &s, &c);
    const auto ref_sin = static_cast<double>(sin_turns(u));
    const auto ref_cos = static_cast<double>(sin_turns(u + 0.25L));
    const std::uint64_t d = std::max(ulps(s, ref_sin), ulps(c, ref_cos));
    worst_sincos = std::max(worst_sincos, d);
    ASSERT_LE(d, kMaxUlps) << "sincos(2 pi " << u << ")";
  }

  // exp over the whole finite range, the kernel's usual arguments near 0,
  // and the saturation edges on both sides.
  std::vector<double> exps = {0.0,
                              -745.2,
                              709.8,
                              710.0,
                              1000.0,
                              -1000.0,
                              1e300,
                              -1e300,
                              kInf,
                              -kInf,
                              noise::kExpOverflow,
                              std::nextafter(noise::kExpOverflow, kInf),
                              noise::kExpUnderflow,
                              std::nextafter(noise::kExpUnderflow, -kInf),
                              -708.4,
                              -720.0};
  for (int i = 0; i < 200000; ++i) {
    exps.push_back(rng.uniform(-745.13, 709.78));
    exps.push_back(rng.uniform(-3.0, 3.0));
  }
  for (int e = 1; e <= 60; ++e) {
    exps.push_back(std::ldexp(rng.uniform(), -e));
    exps.push_back(-std::ldexp(rng.uniform(), -e));
  }
  EXPECT_EQ(noise_exp(0.0), 1.0);
  EXPECT_EQ(noise_exp(-745.2), 0.0);
  EXPECT_EQ(noise_exp(709.8), kInf);
  for (const double x : exps) {
    const double got = noise_exp(x);
    const double want = std::exp(x);
    if (want == 0.0 || std::isinf(want)) {
      ASSERT_EQ(got, want) << "exp(" << x << ") saturates differently";
      continue;
    }
    const std::uint64_t d = ulps(got, want);
    worst_exp = std::max(worst_exp, d);
    ASSERT_LE(d, kMaxUlps) << "exp(" << x << ")";
  }

  // The table kernels evaluate the same exp: sigma = 0 leaves exactly mu.
  std::vector<Dispatch> dispatches = {Dispatch::kScalar};
  if (avx2_available()) dispatches.push_back(Dispatch::kAvx2);
  for (const Dispatch dispatch : dispatches) {
    const Kernels& k = kernels_for(dispatch);
    for (std::size_t i = 0; i < 64 && i < exps.size(); ++i) {
      double out = 0.0;
      k.lognormal_philox(1, 2, 3, 4, 0, exps[i], 0.0, &out, 1);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out),
                std::bit_cast<std::uint64_t>(noise_exp(exps[i])))
          << k.name << " exp(" << exps[i] << ")";
    }
  }
  RecordProperty("worst_log_ulps", static_cast<int>(worst_log));
  RecordProperty("worst_sincos_ulps", static_cast<int>(worst_sincos));
  RecordProperty("worst_exp_ulps", static_cast<int>(worst_exp));
}

TEST(NoiseKernel, NormalsAreStandard) {
  // 2^20 normals from fixed keys and counters (4096 rows of 256 values, the
  // counters laid out as the generator lays out service and commune), read
  // back as z = ln(exp(0 + 1 z)).
  constexpr std::size_t kRows = 4096;
  constexpr std::size_t kRow = 256;
  const Kernels& k = kernels_for(Dispatch::kScalar);
  std::vector<double> z(kRows * kRow);
  for (std::size_t row = 0; row < kRows; ++row) {
    double* out = z.data() + row * kRow;
    k.lognormal_philox(0x243f6a88u, 0x85a308d3u, static_cast<std::uint32_t>(row % 20),
                       static_cast<std::uint32_t>(row / 20), 0, 0.0, 1.0, out, kRow);
    for (std::size_t i = 0; i < kRow; ++i) out[i] = std::log(out[i]);
  }
  const auto n = static_cast<double>(z.size());

  double mean = 0.0;
  for (const double v : z) mean += v;
  mean /= n;
  double var = 0.0;
  for (const double v : z) var += (v - mean) * (v - mean);
  var /= n - 1.0;
  EXPECT_LE(std::abs(mean), 0.005);
  EXPECT_LE(std::abs(var - 1.0), 0.01);

  // Pearson correlation of the pairs (z[i], z[i + 1]) within each row, over
  // every i (lag-1 hours) or every even i (the cos/sin halves of a block).
  const auto pair_correlation = [&](std::size_t stride) {
    double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0, m = 0.0;
    for (std::size_t row = 0; row < kRows; ++row) {
      for (std::size_t i = 0; i + 1 < kRow; i += stride) {
        const double x = z[row * kRow + i];
        const double y = z[row * kRow + i + 1];
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
        m += 1.0;
      }
    }
    const double cov = sxy / m - (sx / m) * (sy / m);
    const double vx = sxx / m - (sx / m) * (sx / m);
    const double vy = syy / m - (sy / m) * (sy / m);
    return cov / std::sqrt(vx * vy);
  };
  EXPECT_LE(std::abs(pair_correlation(1)), 0.01) << "lag-1 hour correlation";
  EXPECT_LE(std::abs(pair_correlation(2)), 0.01) << "cos/sin pair correlation";

  // Kolmogorov-Smirnov distance to Phi against its 1% critical value.
  std::sort(z.begin(), z.end());
  double ks = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double phi = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
    ks = std::max({ks, static_cast<double>(i + 1) / n - phi,
                   phi - static_cast<double>(i) / n});
  }
  EXPECT_LE(ks, 1.63 / std::sqrt(n));
  RecordProperty("ks_distance_x1e6", static_cast<int>(ks * 1e6));
}

}  // namespace
}  // namespace appscope::la::simd
