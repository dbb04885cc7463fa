#include "geo/point.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace appscope::geo {

double distance_km(const Point& a, const Point& b) noexcept {
  const double dx = a.x_km - b.x_km;
  const double dy = a.y_km - b.y_km;
  return std::sqrt(dx * dx + dy * dy);
}

double point_segment_distance_km(const Point& p, const Point& a,
                                 const Point& b) noexcept {
  const double abx = b.x_km - a.x_km;
  const double aby = b.y_km - a.y_km;
  const double len2 = abx * abx + aby * aby;
  if (len2 <= 0.0) return distance_km(p, a);
  const double t = std::clamp(
      ((p.x_km - a.x_km) * abx + (p.y_km - a.y_km) * aby) / len2, 0.0, 1.0);
  const Point proj{a.x_km + t * abx, a.y_km + t * aby};
  return distance_km(p, proj);
}

double Polyline::distance_km(const Point& p) const {
  APPSCOPE_REQUIRE(points.size() >= 2, "Polyline: needs >= 2 points");
  double best = point_segment_distance_km(p, points[0], points[1]);
  for (std::size_t i = 1; i + 1 < points.size(); ++i) {
    best = std::min(best, point_segment_distance_km(p, points[i], points[i + 1]));
  }
  return best;
}

}  // namespace appscope::geo
