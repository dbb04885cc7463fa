#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::stats {
namespace {

const std::vector<double> kSample{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST(RunningStats, MatchesKnownValues) {
  RunningStats rs;
  for (const double x : kSample) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.variance_population(), 4.0);
  EXPECT_DOUBLE_EQ(rs.stddev_population(), 2.0);
  EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats rs;
  EXPECT_THROW(rs.mean(), util::PreconditionError);
  EXPECT_THROW(rs.variance_population(), util::PreconditionError);
  rs.add(1.0);
  EXPECT_NO_THROW(rs.variance_population());
}

TEST(Descriptive, FreeFunctions) {
  EXPECT_DOUBLE_EQ(mean(kSample), 5.0);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
  EXPECT_NEAR(quantile(xs, 1.0 / 3.0), 20.0, 1e-12);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile(std::vector<double>{}, 0.5), util::PreconditionError);
  EXPECT_THROW(quantile(kSample, 1.5), util::PreconditionError);
  EXPECT_THROW(quantile(kSample, -0.1), util::PreconditionError);
}

TEST(Quantiles, MultipleAtOnceMatchSingle) {
  const std::vector<double> qs{0.1, 0.5, 0.9};
  const auto result = quantiles(kSample, qs);
  ASSERT_EQ(result.size(), 3u);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(result[i], quantile(kSample, qs[i]));
  }
}

}  // namespace
}  // namespace appscope::stats
