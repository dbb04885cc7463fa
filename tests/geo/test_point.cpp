#include "geo/point.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace appscope::geo {
namespace {

TEST(Point, Distance) {
  EXPECT_DOUBLE_EQ(distance_km({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_km({1, 1}, {1, 1}), 0.0);
}

TEST(PointSegment, ProjectionInsideSegment) {
  // Point above the middle of a horizontal segment.
  EXPECT_DOUBLE_EQ(point_segment_distance_km({5, 3}, {0, 0}, {10, 0}), 3.0);
}

TEST(PointSegment, ClampsToEndpoints) {
  EXPECT_DOUBLE_EQ(point_segment_distance_km({-3, 4}, {0, 0}, {10, 0}), 5.0);
  EXPECT_DOUBLE_EQ(point_segment_distance_km({13, 4}, {0, 0}, {10, 0}), 5.0);
}

TEST(PointSegment, DegenerateSegment) {
  EXPECT_DOUBLE_EQ(point_segment_distance_km({3, 4}, {0, 0}, {0, 0}), 5.0);
}

TEST(Polyline, DistancePicksClosestSegment) {
  const Polyline line{{{0, 0}, {10, 0}, {10, 10}}};
  EXPECT_DOUBLE_EQ(line.distance_km({5, 2}), 2.0);
  EXPECT_DOUBLE_EQ(line.distance_km({12, 5}), 2.0);
  EXPECT_DOUBLE_EQ(line.distance_km({0, 0}), 0.0);
}

TEST(Polyline, RequiresTwoPoints) {
  const Polyline bad{{{0, 0}}};
  EXPECT_THROW(bad.distance_km({1, 1}), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::geo
