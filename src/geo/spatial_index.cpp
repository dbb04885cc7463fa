#include "geo/spatial_index.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace appscope::geo {

SpatialIndex::SpatialIndex(const Territory& territory, double cell_km)
    : territory_(territory), cell_km_(cell_km) {
  APPSCOPE_REQUIRE(cell_km > 0.0, "SpatialIndex: cell size must be positive");
  cols_ = static_cast<std::size_t>(std::ceil(territory.side_km() / cell_km_)) + 1;
  rows_ = cols_;
  buckets_.resize(cols_ * rows_);
  points_.reserve(territory.size());
  for (const auto& commune : territory.communes()) {
    points_.push_back(commune.centroid);
    buckets_[bucket_of(commune.centroid)].push_back(commune.id);
  }
}

std::size_t SpatialIndex::bucket_of(const Point& p) const noexcept {
  const auto cx = static_cast<std::size_t>(
      std::clamp(p.x_km / cell_km_, 0.0, static_cast<double>(cols_ - 1)));
  const auto cy = static_cast<std::size_t>(
      std::clamp(p.y_km / cell_km_, 0.0, static_cast<double>(rows_ - 1)));
  return cy * cols_ + cx;
}

std::vector<CommuneId> SpatialIndex::within_radius(const Point& p,
                                                   double radius_km) const {
  APPSCOPE_REQUIRE(radius_km >= 0.0, "within_radius: negative radius");
  const auto reach = static_cast<long>(std::ceil(radius_km / cell_km_));
  const auto cx = static_cast<long>(
      std::clamp(p.x_km / cell_km_, 0.0, static_cast<double>(cols_ - 1)));
  const auto cy = static_cast<long>(
      std::clamp(p.y_km / cell_km_, 0.0, static_cast<double>(rows_ - 1)));

  std::vector<std::pair<double, CommuneId>> hits;
  for (long dy = -reach; dy <= reach; ++dy) {
    const long y = cy + dy;
    if (y < 0 || y >= static_cast<long>(rows_)) continue;
    for (long dx = -reach; dx <= reach; ++dx) {
      const long x = cx + dx;
      if (x < 0 || x >= static_cast<long>(cols_)) continue;
      for (const CommuneId id :
           buckets_[static_cast<std::size_t>(y) * cols_ + static_cast<std::size_t>(x)]) {
        const double d = distance_km(p, points_[id]);
        if (d <= radius_km) hits.emplace_back(d, id);
      }
    }
  }
  std::sort(hits.begin(), hits.end());
  std::vector<CommuneId> out;
  out.reserve(hits.size());
  for (const auto& [d, id] : hits) out.push_back(id);
  return out;
}

std::vector<CommuneId> SpatialIndex::neighbors(CommuneId c,
                                               double radius_km) const {
  APPSCOPE_REQUIRE(c < points_.size(), "neighbors: commune out of range");
  std::vector<CommuneId> out = within_radius(points_[c], radius_km);
  out.erase(std::remove(out.begin(), out.end(), c), out.end());
  return out;
}

}  // namespace appscope::geo
