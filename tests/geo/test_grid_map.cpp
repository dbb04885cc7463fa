#include "geo/grid_map.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace appscope::geo {
namespace {

/// The number of occupied (non-blank) cells in a rendering.
std::size_t glyphs(const std::string& art) {
  std::size_t n = 0;
  for (const char c : art) n += c != ' ' && c != '\n' ? 1 : 0;
  return n;
}

TEST(GridMap, DepositAndReadBack) {
  // A cell reads as the mean of its deposits: the one holding 3 and 5
  // shades like the one holding 4, not like the one holding 8.
  GridMap map(4, 1, 40.0);
  map.deposit({5.0, 5.0}, 3.0);
  map.deposit({5.0, 5.0}, 5.0);
  map.deposit({15.0, 5.0}, 4.0);
  map.deposit({25.0, 5.0}, 8.0);
  const std::string art = map.render_ascii(false);
  ASSERT_EQ(art.size(), 5u);
  EXPECT_EQ(art[0], art[1]);
  EXPECT_NE(art[1], art[2]);
  EXPECT_EQ(art[3], ' ');
}

TEST(GridMap, EdgeCoordinatesClampIntoRaster) {
  GridMap map(4, 4, 100.0);
  map.deposit({100.0, 100.0}, 1.0);  // exactly on the far corner
  map.deposit({-5.0, 200.0}, 1.0);   // outside: clamped
  const std::string art = map.render_ascii(false);
  // Both land in the north row, printed first: its columns 0 and 3.
  EXPECT_NE(art[0], ' ');
  EXPECT_NE(art[3], ' ');
  EXPECT_EQ(glyphs(art), 2u);
}

TEST(GridMap, AsciiRenderingShapes) {
  GridMap map(6, 3, 60.0);
  map.deposit({10.0, 10.0}, 1.0);
  const std::string art = map.render_ascii(false);
  // 3 rows, each 6 chars + newline.
  EXPECT_EQ(art.size(), 3u * 7u);
  // Exactly one non-space glyph.
  EXPECT_EQ(glyphs(art), 1u);
}

TEST(GridMap, AsciiNorthUpOrientation) {
  GridMap map(2, 2, 10.0);
  map.deposit({1.0, 9.0}, 1.0);  // north-west cell
  const std::string art = map.render_ascii(false);
  // First printed row is the north row: glyph must be its first char.
  EXPECT_NE(art[0], ' ');
}

TEST(GridMap, LogScaleSeparatesDecades) {
  GridMap lin(3, 1, 30.0);
  lin.deposit({5.0, 0.5}, 1.0);
  lin.deposit({15.0, 0.5}, 10.0);
  lin.deposit({25.0, 0.5}, 100.0);
  const std::string log_art = lin.render_ascii(true);
  // In log scale the mid value maps to the middle shade bucket: all three
  // glyphs must be distinct.
  EXPECT_NE(log_art[0], log_art[1]);
  EXPECT_NE(log_art[1], log_art[2]);
}

TEST(GridMap, Validation) {
  EXPECT_THROW(GridMap(0, 5, 10.0), util::PreconditionError);
  EXPECT_THROW(GridMap(5, 5, 0.0), util::PreconditionError);
}

TEST(MapCommuneValues, OneValuePerCommuneRequired) {
  CountryConfig cfg;
  cfg.commune_count = 100;
  cfg.metro_count = 2;
  cfg.side_km = 200.0;
  cfg.largest_metro_population = 100'000;
  const Territory t = build_synthetic_country(cfg);
  EXPECT_THROW(map_commune_values(t, std::vector<double>(50, 1.0)),
               util::PreconditionError);
  const GridMap map = map_commune_values(t, std::vector<double>(100, 1.0), 20, 10);
  EXPECT_EQ(map.cols(), 20u);
  EXPECT_GT(glyphs(map.render_ascii()), 0u);
}

TEST(MapCoverage, ProducesOccupiedCells) {
  CountryConfig cfg;
  cfg.commune_count = 100;
  cfg.metro_count = 2;
  cfg.side_km = 200.0;
  cfg.largest_metro_population = 100'000;
  const Territory t = build_synthetic_country(cfg);
  const GridMap map = map_coverage(t, 20, 10);
  EXPECT_GT(glyphs(map.render_ascii(false)), 10u);
}

}  // namespace
}  // namespace appscope::geo
