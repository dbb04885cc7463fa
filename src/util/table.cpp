#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace appscope::util {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  APPSCOPE_REQUIRE(!header_.empty(), "TextTable needs at least one column");
}

void TextTable::add_row(std::vector<std::string> row) {
  APPSCOPE_REQUIRE(row.size() == header_.size(),
                   "TextTable row arity must match header");
  rows_.push_back(std::move(row));
}

void TextTable::render(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ") << pad_right(row[c], widths[c]);
    }
    out << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string ascii_bar(double value, double max, std::size_t width) {
  if (!(max > 0.0) || !std::isfinite(value)) return std::string(width, '-');
  const double frac = std::clamp(value / max, 0.0, 1.0);
  const auto filled = static_cast<std::size_t>(std::lround(frac * static_cast<double>(width)));
  std::string bar(filled, '#');
  bar.append(width - filled, '-');
  return bar;
}

std::string ascii_chart(const std::vector<double>& values, std::size_t height,
                        std::size_t max_width) {
  if (values.empty() || height == 0) return {};
  // Downsample to max_width columns by averaging buckets.
  std::vector<double> cols;
  if (values.size() <= max_width) {
    cols = values;
  } else {
    cols.resize(max_width, 0.0);
    std::vector<std::size_t> counts(max_width, 0);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::size_t c = i * max_width / values.size();
      cols[c] += values[i];
      ++counts[c];
    }
    for (std::size_t c = 0; c < max_width; ++c) {
      if (counts[c] > 0) cols[c] /= static_cast<double>(counts[c]);
    }
  }
  double lo = cols.front();
  double hi = cols.front();
  for (const double v : cols) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double range = hi - lo > 0.0 ? hi - lo : 1.0;
  std::string out;
  for (std::size_t row = 0; row < height; ++row) {
    const double level = 1.0 - static_cast<double>(row) / static_cast<double>(height);
    out += "  |";
    for (const double v : cols) {
      const double frac = (v - lo) / range;
      out.push_back(frac >= level - 1e-12 ? '#' : ' ');
    }
    out.push_back('\n');
  }
  out += "  +" + std::string(cols.size(), '-') + '\n';
  return out;
}

std::string rule(const std::string& title, std::size_t width) {
  std::string out = "== " + title + " ";
  if (out.size() < width) out.append(width - out.size(), '=');
  return out;
}

}  // namespace appscope::util
