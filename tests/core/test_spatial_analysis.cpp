#include "core/spatial_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"

namespace appscope::core {
namespace {

const TrafficDataset& dataset() {
  static const TrafficDataset d =
      TrafficDataset::generate(synth::ScenarioConfig::test_scale());
  return d;
}

workload::ServiceIndex service(const char* name) {
  return *dataset().catalog().find(name);
}

TEST(Concentration, TwitterTrafficIsHeavilyConcentrated) {
  const ConcentrationReport report = analyze_concentration(
      dataset(), service("Twitter"), workload::Direction::kDownlink);
  // Fig. 8: top communes carry the bulk of traffic. At test scale (400
  // communes) the concentration is milder than nationwide, but the ordering
  // properties must hold.
  EXPECT_GT(report.top1_share, 0.05);
  EXPECT_GT(report.top10_share, 0.3);
  EXPECT_GT(report.top10_share, report.top1_share);
  EXPECT_GT(report.gini, 0.5);
  EXPECT_EQ(report.name, "Twitter");
}

TEST(Concentration, CumulativeShareIsMonotone) {
  const ConcentrationReport report = analyze_concentration(
      dataset(), service("Twitter"), workload::Direction::kDownlink);
  ASSERT_EQ(report.cumulative_share.size(), dataset().commune_count());
  for (std::size_t i = 1; i < report.cumulative_share.size(); ++i) {
    ASSERT_GE(report.cumulative_share[i], report.cumulative_share[i - 1]);
  }
  EXPECT_NEAR(report.cumulative_share.back(), 1.0, 1e-9);
}

TEST(Concentration, PerUserQuantilesAreOrderedAndSkewed) {
  const ConcentrationReport report = analyze_concentration(
      dataset(), service("Twitter"), workload::Direction::kDownlink);
  for (std::size_t i = 1; i < report.per_user_quantiles.size(); ++i) {
    EXPECT_GE(report.per_user_quantiles[i], report.per_user_quantiles[i - 1]);
  }
  // Highly skewed: the 99th percentile dwarfs the median (paper: KB vs MB).
  EXPECT_GT(report.per_user_quantiles[6], 5.0 * report.per_user_quantiles[3]);
}

TEST(Concentration, UplinkWorksToo) {
  const ConcentrationReport report = analyze_concentration(
      dataset(), service("Twitter"), workload::Direction::kUplink);
  EXPECT_GT(report.top10_share, 0.2);
}

TEST(Concentration, BadServiceThrows) {
  EXPECT_THROW(
      analyze_concentration(dataset(), 99, workload::Direction::kDownlink),
      util::PreconditionError);
}

TEST(UsageMap, TwitterCoversMostCommunes) {
  const UsageMapReport report = analyze_usage_map(
      dataset(), service("Twitter"), workload::Direction::kDownlink);
  EXPECT_LT(report.absent_commune_fraction, 0.15);
  EXPECT_GT(report.urban_mean, report.rural_mean);
  const std::string art = report.usage_map.render_ascii();
  EXPECT_NE(art.find_first_not_of(" \n"), std::string::npos);
}

TEST(UsageMap, NetflixIsAbsentFromLargeRegions) {
  const UsageMapReport twitter = analyze_usage_map(
      dataset(), service("Twitter"), workload::Direction::kDownlink);
  const UsageMapReport netflix = analyze_usage_map(
      dataset(), service("Netflix"), workload::Direction::kDownlink);
  // Fig. 9 middle: Netflix usage is dramatically low or absent in much of
  // rural France.
  EXPECT_GT(netflix.absent_commune_fraction,
            3.0 * twitter.absent_commune_fraction);
  EXPECT_GT(netflix.absent_commune_fraction, 0.3);
  // And the urban/rural contrast is stronger for Netflix.
  EXPECT_GT(netflix.urban_mean / (netflix.rural_mean + 1.0),
            twitter.urban_mean / (twitter.rural_mean + 1.0));
}

TEST(UsageMap, AsciiRenderingNonTrivial) {
  const UsageMapReport report = analyze_usage_map(
      dataset(), service("Twitter"), workload::Direction::kDownlink, 40, 20);
  const std::string art = report.usage_map.render_ascii();
  EXPECT_EQ(report.usage_map.cols(), 40u);
  std::size_t glyphs = 0;
  for (const char c : art) {
    if (c != ' ' && c != '\n') ++glyphs;
  }
  EXPECT_GT(glyphs, 50u);
}

TEST(SpatialCorrelation, MatrixShapeAndDiagonal) {
  const SpatialCorrelationReport report =
      analyze_spatial_correlation(dataset(), workload::Direction::kDownlink);
  ASSERT_EQ(report.r2.rows(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(report.r2(i, i), 1.0, 1e-9);
    for (std::size_t j = 0; j < 20; ++j) {
      ASSERT_GE(report.r2(i, j), 0.0);
      ASSERT_LE(report.r2(i, j), 1.0);
    }
  }
  EXPECT_EQ(report.pairwise_values.size(), 20u * 19u / 2u);
}

TEST(SpatialCorrelation, ServicesAreSpatiallySimilar) {
  // Fig. 10: strongly positive pairwise r², mean around 0.5-0.6.
  const SpatialCorrelationReport report =
      analyze_spatial_correlation(dataset(), workload::Direction::kDownlink);
  EXPECT_GT(report.mean_r2, 0.35);
  EXPECT_GT(report.median_r2, 0.35);
}

TEST(SpatialCorrelation, NetflixAndICloudAreTheOutliers) {
  const SpatialCorrelationReport report =
      analyze_spatial_correlation(dataset(), workload::Direction::kDownlink);
  ASSERT_EQ(report.outliers.size(), 2u);
  std::vector<std::string> names;
  for (const auto s : report.outliers) {
    names.push_back(dataset().catalog()[s].name);
  }
  EXPECT_TRUE(std::find(names.begin(), names.end(), "Netflix") != names.end())
      << names[0] << "," << names[1];
  EXPECT_TRUE(std::find(names.begin(), names.end(), "iCloud") != names.end())
      << names[0] << "," << names[1];
}

TEST(SpatialCorrelation, OutlierMeansAreLow) {
  const SpatialCorrelationReport report =
      analyze_spatial_correlation(dataset(), workload::Direction::kDownlink);
  const auto netflix = service("Netflix");
  double non_outlier_mean = 0.0;
  std::size_t count = 0;
  for (std::size_t s = 0; s < 20; ++s) {
    if (std::find(report.outliers.begin(), report.outliers.end(), s) !=
        report.outliers.end()) {
      continue;
    }
    non_outlier_mean += report.service_mean_r2[s];
    ++count;
  }
  non_outlier_mean /= static_cast<double>(count);
  EXPECT_LT(report.service_mean_r2[netflix], 0.6 * non_outlier_mean);
}

TEST(SpatialCorrelation, UplinkDirectionWorks) {
  const SpatialCorrelationReport report =
      analyze_spatial_correlation(dataset(), workload::Direction::kUplink);
  EXPECT_GT(report.mean_r2, 0.25);
}

}  // namespace
}  // namespace appscope::core
