#include "stats/correlation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::stats {
namespace {

TEST(Pearson, PerfectLinearRelationships) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg(y);
  for (double& v : neg) v = -v;
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
  EXPECT_NEAR(pearson_r2(x, neg), 1.0, 1e-12);
  // A monotone but non-linear relation reads below 1.
  const std::vector<double> cubic{1, 8, 27, 64, 125};
  EXPECT_LT(pearson(x, cubic), 1.0);
}

TEST(Pearson, AffineInvariance) {
  util::Rng rng(1);
  std::vector<double> x(50), y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  const double r = pearson(x, y);
  std::vector<double> x2(x);
  for (double& v : x2) v = 3.0 * v + 7.0;
  EXPECT_NEAR(pearson(x2, y), r, 1e-12);
}

TEST(Pearson, ConstantVectorGivesZero) {
  const std::vector<double> x{1, 1, 1, 1};
  const std::vector<double> y{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
  EXPECT_DOUBLE_EQ(pearson(y, x), 0.0);
}

TEST(Pearson, IndependentSamplesNearZero) {
  util::Rng rng(2);
  std::vector<double> x(20000), y(20000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Pearson, Preconditions) {
  EXPECT_THROW(pearson(std::vector<double>{1.0}, std::vector<double>{1.0}),
               util::PreconditionError);
  EXPECT_THROW(pearson(std::vector<double>{1, 2}, std::vector<double>{1, 2, 3}),
               util::PreconditionError);
}

TEST(PairwiseR2, StructureAndSymmetry) {
  const std::vector<std::vector<double>> vectors{
      {1, 2, 3, 4}, {2, 4, 6, 8}, {4, 3, 2, 1}};
  const la::Matrix m = pairwise_r2(vectors);
  ASSERT_EQ(m.rows(), 3u);
  EXPECT_NEAR(m(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(m(0, 1), 1.0, 1e-12);  // colinear
  EXPECT_NEAR(m(0, 2), 1.0, 1e-12);  // anti-colinear, r² still 1
  EXPECT_DOUBLE_EQ(m(1, 2), m(2, 1));
  EXPECT_TRUE(m.is_symmetric());
}

/// A double's bit pattern, so NaN entries compare too.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every entry of pairwise_r2 against pearson_r2 on the same two vectors.
void expect_matches_pearson_bitwise(
    const std::vector<std::vector<double>>& vectors) {
  const la::Matrix m = pairwise_r2(vectors);
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    for (std::size_t j = 0; j < vectors.size(); ++j) {
      EXPECT_EQ(bits(m(i, j)), bits(pearson_r2(vectors[i], vectors[j])))
          << i << "," << j << ": " << m(i, j);
    }
  }
}

TEST(PairwiseR2, MatchesPearsonBitwise) {
  // pairwise_r2 centres each vector once and takes one dot product per
  // pair; every entry must still carry pearson_r2's bits.
  util::Rng rng(17);
  std::vector<std::vector<double>> vectors;
  for (int v = 0; v < 12; ++v) {
    const double scale = rng.lognormal(0.0, 2.0);
    const double offset = rng.uniform(-1e3, 1e3);
    std::vector<double> x(301);
    for (double& e : x) e = offset + scale * rng.normal();
    vectors.push_back(std::move(x));
  }
  const std::size_t constant = vectors.size();
  vectors.emplace_back(301, 4.25);
  const std::size_t with_nan = vectors.size();
  vectors.push_back(vectors[0]);
  vectors.back()[100] = std::numeric_limits<double>::quiet_NaN();
  const std::size_t negated = vectors.size();
  vectors.push_back(vectors[1]);
  for (double& e : vectors.back()) e = -e;
  expect_matches_pearson_bitwise(vectors);

  const la::Matrix m = pairwise_r2(vectors);
  for (std::size_t j = 0; j < vectors.size(); ++j) {
    EXPECT_EQ(m(constant, j), 0.0) << j;  // pearson's constant guard
    if (j != constant) EXPECT_TRUE(std::isnan(m(with_nan, j))) << j;
  }
  EXPECT_EQ(m(1, negated), 1.0);  // r = -1 exactly

  // Length-2 vectors, the shortest pearson accepts.
  expect_matches_pearson_bitwise({{1.0, 2.0}, {3.0, -1.0}, {5.0, 5.0}});

  // Magnitudes near 1e150: each Σd² is finite but their product overflows,
  // so every entry, the diagonal included, is dot / inf = 0, as pearson's.
  std::vector<std::vector<double>> huge;
  for (int v = 0; v < 4; ++v) {
    std::vector<double> x(8);
    for (double& e : x) e = 1e150 * rng.normal();
    huge.push_back(std::move(x));
  }
  expect_matches_pearson_bitwise(huge);
  EXPECT_EQ(pairwise_r2(huge)(0, 0), 0.0);

  EXPECT_THROW(pairwise_r2({{1.0}, {2.0}}), util::PreconditionError);
}

TEST(PairwiseR2, RejectsRaggedInput) {
  EXPECT_THROW(pairwise_r2({{1, 2}, {1, 2, 3}}), util::PreconditionError);
  EXPECT_THROW(pairwise_r2({}), util::PreconditionError);
}

TEST(UpperTriangle, ExtractsOffDiagonal) {
  la::Matrix m(3, 3);
  m(0, 1) = 1.0;
  m(0, 2) = 2.0;
  m(1, 2) = 3.0;
  const auto tri = upper_triangle(m);
  EXPECT_EQ(tri, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(mean_off_diagonal(m), 2.0);
}

TEST(UpperTriangle, RequiresSquare) {
  EXPECT_THROW(upper_triangle(la::Matrix(2, 3)), util::PreconditionError);
  EXPECT_THROW(mean_off_diagonal(la::Matrix(1, 1)), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::stats
