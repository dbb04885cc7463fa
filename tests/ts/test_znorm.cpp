#include "ts/znorm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace appscope::ts {
namespace {

TEST(Znorm, ProducesZeroMeanUnitVariance) {
  util::Rng rng(1);
  std::vector<double> x(500);
  for (double& v : x) v = rng.normal(10.0, 3.0);
  const auto z = znormalize(std::span<const double>(x));
  stats::RunningStats rs;
  for (const double v : z) rs.add(v);
  EXPECT_NEAR(rs.mean(), 0.0, 1e-10);
  EXPECT_NEAR(rs.stddev_population(), 1.0, 1e-10);
  EXPECT_TRUE(is_znormalized(z));
}

TEST(Znorm, ConstantSeriesBecomesZeros) {
  const auto z = znormalize(std::span<const double>(
      std::vector<double>{5.0, 5.0, 5.0}));
  for (const double v : z) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(is_znormalized(z));
}

TEST(Znorm, ShapePreserved) {
  // Z-normalization is affine: ordering and relative spacing survive.
  const std::vector<double> x{1.0, 3.0, 2.0};
  const auto z = znormalize(std::span<const double>(x));
  EXPECT_LT(z[0], z[2]);
  EXPECT_LT(z[2], z[1]);
  // Affine invariance: a*x + b z-normalizes identically (a > 0).
  std::vector<double> y(x);
  for (double& v : y) v = 4.0 * v - 7.0;
  const auto zy = znormalize(std::span<const double>(y));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(z[i], zy[i], 1e-12);
}

TEST(Znorm, InplaceMatchesCopy) {
  std::vector<double> x{2.0, 4.0, 8.0, 16.0};
  const auto copy = znormalize(std::span<const double>(x));
  znormalize_inplace(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(x[i], copy[i]);
}

TEST(Znorm, EmptyIsNoop) {
  std::vector<double> empty;
  znormalize_inplace(empty);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(is_znormalized(empty));
}

TEST(IsZnormalized, DetectsNonNormalized) {
  EXPECT_FALSE(is_znormalized(std::vector<double>{1.0, 2.0, 3.0}));
}

}  // namespace
}  // namespace appscope::ts
