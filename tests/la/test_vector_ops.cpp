#include "la/vector_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace appscope::la {
namespace {

const std::vector<double> kA{1.0, 2.0, 3.0};
const std::vector<double> kB{4.0, -5.0, 6.0};

TEST(VectorOps, Dot) {
  EXPECT_DOUBLE_EQ(dot(kA, kB), 4.0 - 10.0 + 18.0);
  EXPECT_THROW(dot(kA, std::vector<double>{1.0}), util::PreconditionError);
}

TEST(VectorOps, Norms) {
  EXPECT_DOUBLE_EQ(norm2(std::vector<double>{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(norm2(std::vector<double>{}), 0.0);
}

TEST(VectorOps, Distances) {
  EXPECT_DOUBLE_EQ(squared_distance(kA, kA), 0.0);
  EXPECT_DOUBLE_EQ(distance(std::vector<double>{0.0, 0.0},
                            std::vector<double>{3.0, 4.0}),
                   5.0);
}

TEST(VectorOps, Axpy) {
  std::vector<double> y{1.0, 1.0, 1.0};
  axpy(2.0, kA, y);
  EXPECT_EQ(y, (std::vector<double>{3.0, 5.0, 7.0}));
}

TEST(VectorOps, Scale) {
  std::vector<double> x{1.0, -2.0};
  scale(x, -3.0);
  EXPECT_EQ(x, (std::vector<double>{-3.0, 6.0}));
}

TEST(VectorOps, SumMeanExtremes) {
  EXPECT_DOUBLE_EQ(sum(kA), 6.0);
  EXPECT_DOUBLE_EQ(mean(kA), 2.0);
  EXPECT_THROW(mean(std::vector<double>{}), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::la
