#include "geo/grid_map.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace appscope::geo {

GridMap::GridMap(std::size_t cols, std::size_t rows, double side_km)
    : cols_(cols),
      rows_(rows),
      side_km_(side_km),
      sums_(cols * rows, 0.0),
      counts_(cols * rows, 0) {
  APPSCOPE_REQUIRE(cols > 0 && rows > 0, "GridMap: empty raster");
  APPSCOPE_REQUIRE(side_km > 0.0, "GridMap: side must be positive");
}

std::size_t GridMap::index(std::size_t col, std::size_t row) const {
  APPSCOPE_REQUIRE(col < cols_ && row < rows_, "GridMap: cell out of range");
  return row * cols_ + col;
}

void GridMap::deposit(const Point& p, double value) {
  const double fx = std::clamp(p.x_km / side_km_, 0.0, 1.0);
  const double fy = std::clamp(p.y_km / side_km_, 0.0, 1.0);
  const auto col = std::min(cols_ - 1, static_cast<std::size_t>(fx * static_cast<double>(cols_)));
  const auto row = std::min(rows_ - 1, static_cast<std::size_t>(fy * static_cast<double>(rows_)));
  const std::size_t i = index(col, row);
  sums_[i] += value;
  ++counts_[i];
}

std::vector<double> GridMap::normalized_levels(bool log_scale) const {
  // Normalize occupied cells to [0, 1]; unoccupied cells get -1.
  std::vector<double> levels(sums_.size(), -1.0);
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    if (counts_[i] == 0) continue;
    double v = sums_[i] / static_cast<double>(counts_[i]);
    if (log_scale) v = std::log10(std::max(v, 1e-12));
    levels[i] = v;
    if (!any) {
      lo = hi = v;
      any = true;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  const double range = hi - lo > 0.0 ? hi - lo : 1.0;
  for (double& v : levels) {
    if (v >= lo) v = (v - lo) / range;  // occupied cells only
  }
  return levels;
}

std::string GridMap::render_ascii(bool log_scale) const {
  static constexpr const char* kShades = " .:-=+*%@#";
  const std::vector<double> levels = normalized_levels(log_scale);
  std::string out;
  out.reserve((cols_ + 1) * rows_);
  // Render north-up: row 0 of the raster is y≈0 (south), print it last.
  for (std::size_t r = rows_; r-- > 0;) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const double v = levels[r * cols_ + c];
      if (v < 0.0) {
        out.push_back(' ');
      } else {
        const auto shade =
            static_cast<std::size_t>(std::min(9.0, 1.0 + std::floor(v * 9.0)));
        out.push_back(kShades[shade]);
      }
    }
    out.push_back('\n');
  }
  return out;
}

GridMap map_commune_values(const Territory& territory,
                           const std::vector<double>& values, std::size_t cols,
                           std::size_t rows) {
  APPSCOPE_REQUIRE(values.size() == territory.size(),
                   "map_commune_values: one value per commune required");
  GridMap map(cols, rows, territory.side_km());
  for (std::size_t i = 0; i < values.size(); ++i) {
    map.deposit(territory.communes()[i].centroid, values[i]);
  }
  return map;
}

GridMap map_coverage(const Territory& territory, std::size_t cols,
                     std::size_t rows) {
  GridMap map(cols, rows, territory.side_km());
  for (const auto& c : territory.communes()) {
    map.deposit(c.centroid, c.has_4g ? 2.0 : (c.has_3g ? 1.0 : 0.0));
  }
  return map;
}

}  // namespace appscope::geo
