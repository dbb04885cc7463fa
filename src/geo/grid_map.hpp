// appscope/geo/grid_map.hpp
//
// Rasterizes per-commune values onto a regular grid and renders them as
// ASCII shade maps or PGM images — the reproduction medium for the Fig. 9
// maps (per-subscriber Twitter/Netflix activity, 3G/4G coverage).
#pragma once

#include <string>
#include <vector>

#include "geo/territory.hpp"

namespace appscope::geo {

class GridMap {
 public:
  /// An empty raster with no cells, e.g. a report field not yet filled.
  GridMap() = default;
  /// cols × rows raster covering [0, side_km]².
  GridMap(std::size_t cols, std::size_t rows, double side_km);

  std::size_t cols() const noexcept { return cols_; }
  std::size_t rows() const noexcept { return rows_; }

  /// Accumulates `value` into the cell containing `p` (mean of deposits).
  void deposit(const Point& p, double value);

  /// ASCII shade rendering of each cell's mean deposit, north up;
  /// `log_scale` maps values through log10 first (traffic maps span many
  /// decades). Empty cells render as spaces.
  std::string render_ascii(bool log_scale = true) const;

 private:
  std::size_t index(std::size_t col, std::size_t row) const;
  std::vector<double> normalized_levels(bool log_scale) const;

  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  double side_km_ = 0.0;
  std::vector<double> sums_;
  std::vector<std::uint32_t> counts_;
};

/// Builds a map of per-commune values over the territory.
/// `values[i]` corresponds to territory.communes()[i].
GridMap map_commune_values(const Territory& territory,
                           const std::vector<double>& values,
                           std::size_t cols = 72, std::size_t rows = 36);

/// Coverage map: cells are 2 where any 4G commune lands, 1 for 3G-only,
/// unset where no commune exists (Fig. 9 right).
GridMap map_coverage(const Territory& territory, std::size_t cols = 72,
                     std::size_t rows = 36);

}  // namespace appscope::geo
