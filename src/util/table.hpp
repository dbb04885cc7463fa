// appscope/util/table.hpp
//
// Terminal rendering used by the figure-reproduction benches: aligned tables,
// horizontal bar charts, and line charts, so each bench prints the same
// rows/series the paper's figure reports.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace appscope::util {

/// Column-aligned ASCII table with a header row.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders with column padding and a separator under the header.
  void render(std::ostream& out) const;

  std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders `value` in [0, max] as a fixed-width ASCII bar ("#####----").
std::string ascii_bar(double value, double max, std::size_t width = 40);

/// Multi-row ASCII line chart (rows = levels, columns = samples).
/// Used to print weekly time-series "figures" in the benches.
std::string ascii_chart(const std::vector<double>& values, std::size_t height = 8,
                        std::size_t max_width = 168);

/// Section header helper: "== title ==============".
std::string rule(const std::string& title, std::size_t width = 78);

}  // namespace appscope::util
