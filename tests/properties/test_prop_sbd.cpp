// Property-based sweeps over the shape-based distance: metric-like
// properties must hold for arbitrary series lengths and random contents.
#include <gtest/gtest.h>

#include <algorithm>

#include "la/fft.hpp"
#include "la/vector_ops.hpp"
#include "ts/sbd.hpp"
#include "ts/znorm.hpp"
#include "util/rng.hpp"

namespace appscope::ts {
namespace {

struct SbdCase {
  std::size_t length;
  std::uint64_t seed;
};

class SbdProperties : public ::testing::TestWithParam<SbdCase> {
 protected:
  std::vector<double> random_series(std::uint64_t salt) const {
    util::Rng rng(GetParam().seed ^ (salt * 0x9E3779B97F4A7C15ULL));
    std::vector<double> out(GetParam().length);
    for (double& v : out) v = rng.normal(0.0, 2.0) + rng.uniform(-1.0, 1.0);
    return out;
  }
};

TEST_P(SbdProperties, SelfDistanceIsZero) {
  const auto x = random_series(1);
  EXPECT_NEAR(sbd_distance(x, x), 0.0, 1e-9);
}

TEST_P(SbdProperties, SymmetricInArguments) {
  const auto x = random_series(1);
  const auto y = random_series(2);
  EXPECT_NEAR(sbd_distance(x, y), sbd_distance(y, x), 1e-10);
}

TEST_P(SbdProperties, RangeZeroToTwo) {
  for (std::uint64_t t = 0; t < 8; ++t) {
    const auto x = random_series(2 * t);
    const auto y = random_series(2 * t + 1);
    const double d = sbd_distance(x, y);
    ASSERT_GE(d, -1e-12);
    ASSERT_LE(d, 2.0 + 1e-12);
  }
}

TEST_P(SbdProperties, PositiveScaleInvariance) {
  const auto x = random_series(1);
  auto y = random_series(2);
  const double base = sbd_distance(x, y);
  for (double& v : y) v *= 7.5;
  EXPECT_NEAR(sbd_distance(x, y), base, 1e-9);
}

TEST_P(SbdProperties, ShiftReducesToNearZeroDistance) {
  const auto x = random_series(1);
  const std::ptrdiff_t shift =
      static_cast<std::ptrdiff_t>(GetParam().length / 4);
  const auto y = shift_series(x, shift);
  // The shifted copy loses `shift` samples off the end, so the distance is
  // small but not exactly zero. The reported shift is the correction to
  // apply to y, i.e. the negative of the delay.
  EXPECT_LT(sbd_distance(x, y), 0.35);
  EXPECT_EQ(sbd(x, y).shift, -shift);
}

TEST_P(SbdProperties, NccPeakConsistentWithDistance) {
  // The reference is the O(m^2) direct correlation normalized by the norms,
  // so lengths on either side of kSbdSpectralThreshold check the SBD
  // kernel's direct and spectral paths against the same arithmetic.
  const auto x = random_series(1);
  const auto y = random_series(2);
  const double denom = la::norm2(x) * la::norm2(y);
  double best = -2.0;
  for (const double v : la::cross_correlation_direct(x, y)) {
    best = std::max(best, v / denom);
  }
  EXPECT_NEAR(sbd_distance(x, y), 1.0 - best, 1e-10);
}

TEST_P(SbdProperties, ZnormalizationDoesNotChangeSbdMuch) {
  // SBD normalizes by vector norms; z-normalization additionally removes
  // the mean, so distances may differ — but both stay within the metric
  // range and identical inputs stay at zero.
  const auto x = random_series(1);
  const auto zx = znormalize(std::span<const double>(x));
  EXPECT_NEAR(sbd_distance(zx, zx), 0.0, 1e-9);
  const double d = sbd_distance(x, zx);
  EXPECT_GE(d, -1e-12);
  EXPECT_LE(d, 2.0 + 1e-12);
}

// Generators live outside the macro: commas inside braced initializers are
// not protected from the preprocessor.
const auto kSbdCases = ::testing::Values(
    SbdCase{8, 1}, SbdCase{16, 2}, SbdCase{24, 3}, SbdCase{64, 4},
    SbdCase{100, 5}, SbdCase{168, 6}, SbdCase{168, 7}, SbdCase{256, 8},
    SbdCase{333, 9});

std::string sbd_case_name(const ::testing::TestParamInfo<SbdCase>& info) {
  return "len" + std::to_string(info.param.length) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(LengthsAndSeeds, SbdProperties, kSbdCases,
                         sbd_case_name);

}  // namespace
}  // namespace appscope::ts
