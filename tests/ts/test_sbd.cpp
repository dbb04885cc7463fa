#include "ts/sbd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ts/znorm.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::ts {
namespace {

std::vector<double> sine(std::size_t n, double period, double phase) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::sin(2.0 * M_PI * (static_cast<double>(i) / period) + phase);
  }
  return out;
}

TEST(Sbd, IdenticalSeriesHaveZeroDistance) {
  const auto x = sine(64, 16.0, 0.0);
  const SbdResult r = sbd(x, x);
  EXPECT_NEAR(r.distance, 0.0, 1e-10);
  EXPECT_EQ(r.shift, 0);
  EXPECT_NEAR(r.ncc, 1.0, 1e-10);
}

TEST(Sbd, ScaleInvariantOnZnormalizedInput) {
  const auto x = znormalize(std::span<const double>(sine(64, 16.0, 0.0)));
  auto y = x;
  for (double& v : y) v *= 5.0;  // NCC normalizes by the norms
  EXPECT_NEAR(sbd_distance(x, y), 0.0, 1e-10);
}

TEST(Sbd, DetectsShift) {
  // y is x delayed by 5 samples (circularly-free: use a pulse).
  std::vector<double> x(50, 0.0);
  std::vector<double> y(50, 0.0);
  x[10] = 1.0;
  y[15] = 1.0;  // same pulse, 5 later
  const SbdResult r = sbd(x, y);
  EXPECT_EQ(r.shift, -5);  // y must be advanced by 5 to match x
  EXPECT_NEAR(r.distance, 0.0, 1e-10);
}

TEST(Sbd, RangeIsZeroToTwo) {
  util::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a(40), b(40);
    for (std::size_t i = 0; i < 40; ++i) {
      a[i] = rng.normal();
      b[i] = rng.normal();
    }
    const double d = sbd_distance(a, b);
    ASSERT_GE(d, 0.0);
    ASSERT_LE(d, 2.0);
  }
}

TEST(Sbd, SignFlippedPulseCannotAlignPositively) {
  // A sign-flipped pulse never correlates positively at any shift; the best
  // NCC is 0 (from non-overlapping shifts), so the distance saturates at 1.
  std::vector<double> up(32, 0.0);
  std::vector<double> down(32, 0.0);
  up[16] = 1.0;
  down[16] = -1.0;
  EXPECT_NEAR(sbd_distance(up, down), 1.0, 1e-10);
  // A fully-overlapping anti-correlated pair (no escape shift) goes beyond 1
  // toward the theoretical maximum of 2.
  const std::vector<double> a{1.0, 1.0};
  const std::vector<double> b{-1.0, -1.0};
  EXPECT_GT(sbd_distance(a, b), 1.4);
}

TEST(Sbd, SymmetricDistance) {
  util::Rng rng(4);
  std::vector<double> a(30), b(30);
  for (std::size_t i = 0; i < 30; ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  EXPECT_NEAR(sbd_distance(a, b), sbd_distance(b, a), 1e-12);
}

TEST(Sbd, ZeroSeriesYieldsMaxDistanceSafely) {
  const std::vector<double> zero(16, 0.0);
  const auto x = sine(16, 8.0, 0.0);
  const SbdResult r = sbd(x, zero);
  EXPECT_DOUBLE_EQ(r.distance, 1.0);  // NCC sequence all zero
  EXPECT_DOUBLE_EQ(r.ncc, 0.0);
}

TEST(ShiftSeries, PositiveAndNegative) {
  const std::vector<double> y{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(shift_series(y, 1), (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
  EXPECT_EQ(shift_series(y, -2), (std::vector<double>{3.0, 4.0, 0.0, 0.0}));
  EXPECT_EQ(shift_series(y, 0), y);
  EXPECT_THROW(shift_series(y, 4), util::PreconditionError);
  EXPECT_THROW(shift_series(y, -4), util::PreconditionError);
}

TEST(Sbd, MismatchedLengthsThrow) {
  EXPECT_THROW(sbd(std::vector<double>{1.0, 2.0}, std::vector<double>{1.0}),
               util::PreconditionError);
  EXPECT_THROW(sbd(std::vector<double>{}, std::vector<double>{}),
               util::PreconditionError);
}

}  // namespace
}  // namespace appscope::ts
