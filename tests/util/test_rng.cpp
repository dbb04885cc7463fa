#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace appscope::util {
namespace {

TEST(Philox4x32, KnownAnswers) {
  // The Random123 known-answer vectors for philox4x32 with 10 rounds.
  using Block = std::array<std::uint32_t, 4>;
  using Key = std::array<std::uint32_t, 2>;
  EXPECT_EQ(philox4x32_10(Block{0, 0, 0, 0}, Key{0, 0}),
            (Block{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}));
  EXPECT_EQ(philox4x32_10(Block{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
                          Key{0xffffffff, 0xffffffff}),
            (Block{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}));
  EXPECT_EQ(philox4x32_10(Block{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
                          Key{0xa4093822, 0x299f31d0}),
            (Block{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}));
}

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkedStreamsAreIndependentOfParentProgress) {
  Rng parent(7);
  Rng child1 = parent.fork(1);
  // Advancing the parent must not change what a same-tag fork *of the
  // original state* would have produced — forks depend only on state+tag.
  const std::uint64_t first = child1.next_u64();
  Rng parent2(7);
  Rng child2 = parent2.fork(1);
  EXPECT_EQ(first, child2.next_u64());
}

TEST(Rng, ForkTagsProduceDistinctStreams) {
  Rng parent(7);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() != b.next_u64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexIsUnbiasedAcrossSmallRange) {
  Rng rng(3);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, 5.0 * std::sqrt(n / 7.0));
  }
}

TEST(Rng, NormalHasCorrectMoments) {
  Rng rng(4);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, NormalWithParametersScales) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalMeanMatchesTheory) {
  Rng rng(6);
  const double sigma = 0.8;
  const double mu = -0.5 * sigma * sigma;  // unit-mean construction
  const int n = 300000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, sigma);
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(Rng, PoissonSmallLambdaMean) {
  Rng rng(8);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.05);
}

TEST(Rng, PoissonLargeLambdaMean) {
  Rng rng(9);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(80.0));
  EXPECT_NEAR(sum / n, 80.0, 0.5);
}

TEST(Rng, PoissonZeroLambdaIsZero) {
  Rng rng(10);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(11);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(12);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace appscope::util
