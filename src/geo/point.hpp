// appscope/geo/point.hpp
//
// Planar geometry for the synthetic-country substrate. The country lives on
// a flat km-scale plane (projection error is irrelevant at the fidelity of
// commune-level aggregation, whose localization error is ~3 km in the paper).
#pragma once

#include <vector>

namespace appscope::geo {

struct Point {
  double x_km = 0.0;
  double y_km = 0.0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// Euclidean distance in km.
double distance_km(const Point& a, const Point& b) noexcept;

/// Distance from a point to the segment [a, b] in km.
double point_segment_distance_km(const Point& p, const Point& a,
                                 const Point& b) noexcept;

/// A polyline (e.g. a TGV high-speed rail line).
struct Polyline {
  std::vector<Point> points;

  /// Minimum distance from `p` to any segment; requires >= 2 points.
  double distance_km(const Point& p) const;
};

}  // namespace appscope::geo
