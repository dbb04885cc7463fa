// appscope/geo/spatial_index.hpp
//
// Grid-bucketed proximity index over commune centroids. Used to
// model the ULI localization error (paper Sec. 2: the median error of
// ULI-based positioning is ~3 km, so a session can be attributed to a
// neighbouring commune) and available for any proximity query over the
// territory.
#pragma once

#include <vector>

#include "geo/territory.hpp"

namespace appscope::geo {

class SpatialIndex {
 public:
  /// Indexes all commune centroids of the territory; `cell_km` is the
  /// bucket size (a few times the typical query radius works well).
  explicit SpatialIndex(const Territory& territory, double cell_km = 12.0);

  /// Communes whose centroid lies within `radius_km` of `p` (inclusive),
  /// in ascending distance order. Always exact (the grid only accelerates).
  std::vector<CommuneId> within_radius(const Point& p, double radius_km) const;

  /// Neighbour communes of `c` within `radius_km`, excluding `c` itself.
  std::vector<CommuneId> neighbors(CommuneId c, double radius_km) const;

  std::size_t size() const noexcept { return points_.size(); }

 private:
  std::size_t bucket_of(const Point& p) const noexcept;

  const Territory& territory_;
  double cell_km_;
  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  std::vector<Point> points_;
  /// bucket -> commune ids
  std::vector<std::vector<CommuneId>> buckets_;
};

}  // namespace appscope::geo
