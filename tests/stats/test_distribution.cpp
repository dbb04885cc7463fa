#include "stats/distribution.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::stats {
namespace {

TEST(Ecdf, StepValues) {
  const Ecdf F(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(F(0.5), 0.0);
  EXPECT_DOUBLE_EQ(F(1.0), 0.25);
  EXPECT_DOUBLE_EQ(F(2.5), 0.5);
  EXPECT_DOUBLE_EQ(F(4.0), 1.0);
  EXPECT_DOUBLE_EQ(F(100.0), 1.0);
}

TEST(Ecdf, EmptySampleThrows) {
  EXPECT_THROW(Ecdf(std::vector<double>{}), util::PreconditionError);
}

TEST(CumulativeShareRanked, KnownSequence) {
  const auto cum = cumulative_share_ranked(std::vector<double>{1.0, 3.0, 6.0});
  ASSERT_EQ(cum.size(), 3u);
  EXPECT_DOUBLE_EQ(cum[0], 0.6);
  EXPECT_DOUBLE_EQ(cum[1], 0.9);
  EXPECT_DOUBLE_EQ(cum[2], 1.0);
}

TEST(CumulativeShareRanked, IsMonotoneNonDecreasing) {
  util::Rng rng(6);
  std::vector<double> values(500);
  for (double& v : values) v = rng.lognormal(0.0, 2.0);
  const auto cum = cumulative_share_ranked(values);
  for (std::size_t i = 1; i < cum.size(); ++i) {
    ASSERT_GE(cum[i], cum[i - 1]);
  }
  EXPECT_NEAR(cum.back(), 1.0, 1e-12);
}

TEST(CumulativeShareRanked, RejectsBadInput) {
  EXPECT_THROW(cumulative_share_ranked(std::vector<double>{}),
               util::PreconditionError);
  EXPECT_THROW(cumulative_share_ranked(std::vector<double>{-1.0, 2.0}),
               util::PreconditionError);
  EXPECT_THROW(cumulative_share_ranked(std::vector<double>{0.0, 0.0}),
               util::PreconditionError);
}

TEST(TopFractionShare, PicksCeilingCount) {
  const std::vector<double> v{10.0, 5.0, 3.0, 2.0};
  // top 25% of 4 = 1 commune -> 10/20.
  EXPECT_DOUBLE_EQ(top_fraction_share(v, 0.25), 0.5);
  // top 1% of 4 still rounds up to 1 contributor.
  EXPECT_DOUBLE_EQ(top_fraction_share(v, 0.01), 0.5);
  EXPECT_DOUBLE_EQ(top_fraction_share(v, 1.0), 1.0);
  EXPECT_THROW(top_fraction_share(v, 0.0), util::PreconditionError);
}

TEST(Gini, UniformIsZeroConcentratedApproachesOne) {
  EXPECT_NEAR(gini(std::vector<double>{5.0, 5.0, 5.0, 5.0}), 0.0, 1e-12);
  std::vector<double> concentrated(100, 0.0);
  concentrated[0] = 100.0;
  EXPECT_NEAR(gini(concentrated), 0.99, 1e-9);
}

TEST(Gini, ScaleInvariant) {
  util::Rng rng(7);
  std::vector<double> v(200);
  for (double& x : v) x = rng.lognormal(0.0, 1.0);
  const double g1 = gini(v);
  for (double& x : v) x *= 42.0;
  EXPECT_NEAR(gini(v), g1, 1e-12);
}

}  // namespace
}  // namespace appscope::stats
