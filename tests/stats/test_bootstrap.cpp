#include "stats/bootstrap.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, double mu, double sigma,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.normal(mu, sigma);
  return out;
}

TEST(Bootstrap, CiBracketsThePointEstimate) {
  const auto sample = normal_sample(200, 5.0, 2.0, 1);
  const BootstrapCi ci = bootstrap_mean_ci(sample);
  EXPECT_LE(ci.lower, ci.point);
  EXPECT_GE(ci.upper, ci.point);
  EXPECT_LT(ci.upper - ci.lower, 2.0);  // n=200, sigma=2: CI ~ ±0.28
}

TEST(Bootstrap, CoversTheTrueMeanAtRoughlyNominalRate) {
  // 95% CI should cover mu=5 in the vast majority of repetitions.
  std::size_t covered = 0;
  const int reps = 60;
  for (int r = 0; r < reps; ++r) {
    const auto sample =
        normal_sample(100, 5.0, 2.0, static_cast<std::uint64_t>(100 + r));
    const BootstrapCi ci =
        bootstrap_mean_ci(sample, 600, 0.05, static_cast<std::uint64_t>(r));
    if (ci.lower <= 5.0 && 5.0 <= ci.upper) ++covered;
  }
  EXPECT_GE(covered, reps * 85 / 100);
}

TEST(Bootstrap, WiderAlphaGivesNarrowerInterval) {
  const auto sample = normal_sample(150, 0.0, 1.0, 3);
  const BootstrapCi wide = bootstrap_mean_ci(sample, 2000, 0.05, 7);
  const BootstrapCi narrow = bootstrap_mean_ci(sample, 2000, 0.32, 7);
  EXPECT_LT(narrow.upper - narrow.lower, wide.upper - wide.lower);
}

TEST(Bootstrap, DeterministicInSeed) {
  const auto sample = normal_sample(80, 1.0, 1.0, 4);
  const BootstrapCi a = bootstrap_mean_ci(sample, 500, 0.05, 11);
  const BootstrapCi b = bootstrap_mean_ci(sample, 500, 0.05, 11);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(Bootstrap, Preconditions) {
  const std::vector<double> sample{1.0, 2.0};
  EXPECT_THROW(bootstrap_mean_ci(std::vector<double>{}),
               util::PreconditionError);
  EXPECT_THROW(bootstrap_mean_ci(sample, 10), util::PreconditionError);
  EXPECT_THROW(bootstrap_mean_ci(sample, 500, 0.7), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::stats
