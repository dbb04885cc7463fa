#include "core/temporal_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <utility>

#include "ts/znorm.hpp"
#include "util/error.hpp"

namespace appscope::core {
namespace {

const TrafficDataset& dataset() {
  static const TrafficDataset d =
      TrafficDataset::generate(synth::ScenarioConfig::test_scale());
  return d;
}

TEST(ClusterSweep, CoversRequestedRange) {
  ClusterSweepOptions opts;
  opts.k_min = 2;
  opts.k_max = 6;
  const ClusterSweepReport report =
      cluster_sweep(dataset(), workload::Direction::kDownlink, opts);
  ASSERT_EQ(report.rows.size(), 5u);
  EXPECT_EQ(report.rows.front().k, 2u);
  EXPECT_EQ(report.rows.back().k, 6u);
  for (const auto& row : report.rows) {
    EXPECT_GE(row.kshape.silhouette, -1.0);
    EXPECT_LE(row.kshape.silhouette, 1.0);
    EXPECT_GE(row.kshape.davies_bouldin, 0.0);
    EXPECT_GE(row.kshape.dunn, 0.0);
    EXPECT_FALSE(row.kmeans.has_value());
  }
}

TEST(ClusterSweep, NoClearWinnerOnPaperLikeData) {
  // The paper's Fig. 5 finding: quality degrades with k; no k stands out.
  // We check the weaker, robust form: the best silhouette is mediocre
  // (nothing like a clean two-cluster structure) and quality at high k is
  // no better than at low k.
  ClusterSweepOptions opts;
  opts.k_min = 2;
  opts.k_max = 10;
  const ClusterSweepReport report =
      cluster_sweep(dataset(), workload::Direction::kDownlink, opts);
  double best_sil = -1.0;
  for (const auto& row : report.rows) {
    best_sil = std::max(best_sil, row.kshape.silhouette);
  }
  EXPECT_LT(best_sil, 0.6);
}

TEST(ClusterSweep, KMeansBaselineIncludedOnRequest) {
  ClusterSweepOptions opts;
  opts.k_min = 2;
  opts.k_max = 3;
  opts.include_kmeans_baseline = true;
  const ClusterSweepReport report =
      cluster_sweep(dataset(), workload::Direction::kUplink, opts);
  for (const auto& row : report.rows) {
    ASSERT_TRUE(row.kmeans.has_value());
    EXPECT_GE(row.kmeans->davies_bouldin, 0.0);
  }
}

TEST(ClusterSweep, BestKHelpers) {
  ClusterSweepOptions opts;
  opts.k_min = 2;
  opts.k_max = 5;
  const ClusterSweepReport report =
      cluster_sweep(dataset(), workload::Direction::kDownlink, opts);
  const std::size_t by_db = report.best_k_by_db_star();
  const std::size_t by_sil = report.best_k_by_silhouette();
  EXPECT_GE(by_db, 2u);
  EXPECT_LE(by_db, 5u);
  EXPECT_GE(by_sil, 2u);
  EXPECT_LE(by_sil, 5u);
}

TEST(ClusterSweep, RowsMatchKShapeOnTheZNormalizedSeries) {
  // The sweep hands every k one prepared member batch; each row must still
  // be what kshape(series) and the quality indices give for that k alone.
  ClusterSweepOptions opts;
  opts.k_min = 2;
  opts.k_max = 7;
  const auto d = workload::Direction::kUplink;
  const ClusterSweepReport report = cluster_sweep(dataset(), d, opts);
  std::vector<std::vector<double>> series;
  for (std::size_t s = 0; s < dataset().service_count(); ++s) {
    series.push_back(ts::znormalize(dataset().national_series(s, d)));
  }
  const ts::SeriesBatch batch(series);
  const ts::DistanceMatrix sbd = ts::sbd_distance_matrix(batch);
  for (const ClusterQualityRow& row : report.rows) {
    ts::KShapeOptions kopts;
    kopts.k = row.k;
    kopts.seed = opts.seed;
    const ts::KShapeResult kshape = ts::kshape(series, kopts);
    const ts::QualityIndices want = ts::evaluate_quality(
        batch, ts::ClusteringView{kshape.assignments, kshape.centroids}, sbd);
    for (const auto& [got_v, want_v] :
         {std::pair{row.kshape.davies_bouldin, want.davies_bouldin},
          std::pair{row.kshape.davies_bouldin_star, want.davies_bouldin_star},
          std::pair{row.kshape.dunn, want.dunn},
          std::pair{row.kshape.silhouette, want.silhouette}}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got_v),
                std::bit_cast<std::uint64_t>(want_v))
          << "k=" << row.k;
    }
  }
}

TEST(ClusterSweep, Validation) {
  ClusterSweepOptions opts;
  opts.k_min = 1;
  EXPECT_THROW(cluster_sweep(dataset(), workload::Direction::kDownlink, opts),
               util::PreconditionError);
  opts.k_min = 5;
  opts.k_max = 4;
  EXPECT_THROW(cluster_sweep(dataset(), workload::Direction::kDownlink, opts),
               util::PreconditionError);
  opts.k_min = 2;
  opts.k_max = 20;  // k_max >= service count
  EXPECT_THROW(cluster_sweep(dataset(), workload::Direction::kDownlink, opts),
               util::PreconditionError);
}

/// The bit patterns of a result's doubles, so equality is bitwise.
std::vector<std::uint64_t> bit_patterns(const ts::KShapeResult& r) {
  std::vector<std::uint64_t> out{std::bit_cast<std::uint64_t>(r.inertia)};
  for (const auto& centroid : r.centroids) {
    for (const double v : centroid) out.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return out;
}

/// kshape on a batch of the z-normalized series, the rows the sweep hands
/// it, must give kshape(series)'s result bit for bit at every k.
void expect_batch_overload_matches(
    const std::vector<std::vector<double>>& series) {
  std::vector<std::vector<double>> rows;
  for (const auto& s : series) {
    rows.push_back(ts::znormalize(std::span<const double>(s)));
  }
  const ts::SeriesBatch members(rows);
  for (std::size_t k = 1; k <= series.size(); ++k) {
    ts::KShapeOptions opts;
    opts.k = k;
    const ts::KShapeResult want = ts::kshape(series, opts);
    const ts::KShapeResult got = ts::kshape(members, opts);
    EXPECT_EQ(got.assignments, want.assignments) << "k=" << k;
    EXPECT_EQ(got.iterations, want.iterations) << "k=" << k;
    EXPECT_EQ(got.converged, want.converged) << "k=" << k;
    EXPECT_EQ(bit_patterns(got), bit_patterns(want)) << "k=" << k;
  }
}

TEST(KShape, BatchOverloadMatchesVectorOverload) {
  std::vector<std::vector<double>> national;
  for (std::size_t s = 0; s < dataset().service_count(); ++s) {
    const auto row =
        dataset().national_series(s, workload::Direction::kDownlink);
    national.emplace_back(row.begin(), row.end());
  }
  expect_batch_overload_matches(national);

  // A duplicated series re-seeds an empty cluster at k = n: each series
  // starts in a cluster of its own, the two copies' centroids are equal,
  // so both join the lower-indexed one and the other cluster empties.
  std::vector<std::vector<double>> with_copy = national;
  with_copy.push_back(national.front());
  expect_batch_overload_matches(with_copy);

  // All constant: every member row and every centroid is all zero.
  std::vector<std::vector<double>> constant;
  for (const double level : {3.0, -1.0, 0.0, 7.5, 3.0}) {
    constant.emplace_back(ts::kHoursPerWeek, level);
  }
  expect_batch_overload_matches(constant);
}

TEST(AnalyzePeaks, EveryServiceHasPeaks) {
  const PeakReport report =
      analyze_peaks(dataset(), workload::Direction::kDownlink);
  ASSERT_EQ(report.services.size(), 20u);
  for (const auto& sp : report.services) {
    EXPECT_FALSE(sp.detection.rising_fronts.empty()) << sp.name;
    EXPECT_FALSE(sp.topical_times.empty()) << sp.name;
  }
}

TEST(AnalyzePeaks, PeaksOnlyAtTopicalTimes) {
  // The paper's central Fig. 6 observation: peaks appear only at the seven
  // topical moments. Unmatched rising fronts must be rare.
  const PeakReport report =
      analyze_peaks(dataset(), workload::Direction::kDownlink);
  std::size_t total_fronts = 0;
  std::size_t unmatched = 0;
  for (const auto& sp : report.services) {
    total_fronts += sp.detection.rising_fronts.size();
    unmatched += sp.unmatched_fronts;
  }
  ASSERT_GT(total_fronts, 0u);
  EXPECT_LT(static_cast<double>(unmatched) / static_cast<double>(total_fronts),
            0.1);
}

TEST(AnalyzePeaks, DetectedTimesMostlyMatchCatalogSignatures) {
  // On the generated dataset two genuine effects put extra (undeclared)
  // topical peaks into the national series: sampling noise (much stronger at
  // 400-commune test scale than nationwide) and the TGV subpopulation,
  // whose train-schedule commute waves bleed into every service's national
  // aggregate. A small budget covers both; the noise-free profile-level
  // check lives in TemporalProfile.CatalogBoostsAreDetectedAtTheRightTopicalTimes.
  const PeakReport report =
      analyze_peaks(dataset(), workload::Direction::kDownlink);
  std::size_t undeclared_total = 0;
  for (const auto& sp : report.services) {
    std::vector<ts::TopicalTime> declared;
    for (const auto& b : dataset().catalog()[sp.service].temporal.params().boosts) {
      declared.push_back(b.time);
    }
    std::size_t undeclared = 0;
    for (const auto t : sp.topical_times) {
      if (std::find(declared.begin(), declared.end(), t) == declared.end()) {
        ++undeclared;
      }
    }
    EXPECT_LE(undeclared, 2u) << sp.name;
    undeclared_total += undeclared;
  }
  EXPECT_LE(undeclared_total, 8u);
}

TEST(AnalyzePeaks, ServicesPeakDiversely) {
  const PeakReport report =
      analyze_peaks(dataset(), workload::Direction::kDownlink);
  // Several distinct topical times are observed across the catalog...
  EXPECT_GE(report.distinct_topical_times(), 5u);
  // ...and services do not all share one signature.
  std::set<std::vector<ts::TopicalTime>> signatures;
  for (const auto& sp : report.services) signatures.insert(sp.topical_times);
  EXPECT_GE(signatures.size(), 10u);
}

TEST(AnalyzePeaks, IntensitiesPositiveWhereReported) {
  const PeakReport report =
      analyze_peaks(dataset(), workload::Direction::kDownlink);
  for (const auto& sp : report.services) {
    for (std::size_t t = 0; t < ts::kTopicalTimeCount; ++t) {
      if (sp.intensities[t]) {
        EXPECT_GT(*sp.intensities[t], 0.0) << sp.name << " t=" << t;
        EXPECT_LT(*sp.intensities[t], 5.0) << sp.name << " t=" << t;
      }
    }
  }
}

TEST(AnalyzePeaks, MiddayIsTheMostCommonPeak) {
  const PeakReport report =
      analyze_peaks(dataset(), workload::Direction::kDownlink);
  std::array<std::size_t, ts::kTopicalTimeCount> counts{};
  for (const auto& sp : report.services) {
    for (const auto t : sp.topical_times) {
      ++counts[static_cast<std::size_t>(t)];
    }
  }
  const std::size_t midday =
      counts[static_cast<std::size_t>(ts::TopicalTime::kMidday)];
  for (std::size_t t = 0; t < ts::kTopicalTimeCount; ++t) {
    EXPECT_GE(midday, counts[t]) << "topical " << t;
  }
}


TEST(WeekSplit, DichotomyAndDailySeasonality) {
  const WeekSplitReport report =
      analyze_week_split(dataset(), workload::Direction::kDownlink);
  ASSERT_EQ(report.services.size(), 20u);
  for (const auto& ws : report.services) {
    // Classic patterns of Fig. 4: strong diurnal swing, ~daily periodicity.
    EXPECT_GT(ws.day_to_night, 2.0) << ws.name;
    EXPECT_EQ(ws.dominant_period_hours, 24u) << ws.name;
    EXPECT_GT(ws.daily_seasonality, 0.5) << ws.name;
    EXPECT_GT(ws.weekend_to_weekday, 0.3) << ws.name;
    EXPECT_LT(ws.weekend_to_weekday, 2.0) << ws.name;
  }
}

TEST(WeekSplit, RecoversCatalogWeekendScaleOrdering) {
  // Mail (weekend_scale 0.6) must show a weaker weekend than Pokemon Go
  // (weekend_scale 1.25).
  const WeekSplitReport report =
      analyze_week_split(dataset(), workload::Direction::kDownlink);
  double mail = 0.0;
  double pg = 0.0;
  for (const auto& ws : report.services) {
    if (ws.name == "Mail") mail = ws.weekend_to_weekday;
    if (ws.name == "Pokemon Go") pg = ws.weekend_to_weekday;
  }
  EXPECT_GT(pg, mail * 1.3);
  EXPECT_LT(mail, 1.0);
  EXPECT_GT(pg, 1.0);
}

}  // namespace
}  // namespace appscope::core
