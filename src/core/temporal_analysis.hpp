// appscope/core/temporal_analysis.hpp
//
// Nationwide temporal analyses (paper Sec. 4):
//  - Fig. 5: exhaustive k-Shape sweep over k with four quality indices,
//    optionally repeated with the Euclidean k-means baseline (ablation);
//  - Figs. 4/6: smoothed z-score peak detection on every service's weekly
//    series and the mapping of peaks onto the seven topical times;
//  - Fig. 7: peak intensities per service per topical time.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "ts/cluster_quality.hpp"
#include "ts/kshape.hpp"
#include "ts/peaks.hpp"
#include "ts/series_batch.hpp"

namespace appscope::core {

/// One row of the Fig. 5 sweep.
struct ClusterQualityRow {
  std::size_t k = 0;
  ts::QualityIndices kshape;
  /// Present when the k-means baseline was requested.
  std::optional<ts::QualityIndices> kmeans;
};

struct ClusterSweepReport {
  workload::Direction direction = workload::Direction::kDownlink;
  std::vector<ClusterQualityRow> rows;  // k = k_min .. k_max

  /// k minimizing Davies-Bouldin* (the "winner" if one existed).
  std::size_t best_k_by_db_star() const;
  /// k maximizing Silhouette.
  std::size_t best_k_by_silhouette() const;
};

struct ClusterSweepOptions {
  std::size_t k_min = 2;
  std::size_t k_max = 19;
  bool include_kmeans_baseline = false;
  std::uint64_t seed = 7;
};

/// Runs k-Shape (and optionally k-means) over the z-normalized national
/// series of all services for every k in [k_min, k_max], scoring each
/// clustering with the four indices (SBD geometry for k-Shape, Euclidean
/// for k-means). It is prepare_cluster_sweep plus one cluster_sweep_row
/// per k on the pool, largest k first.
ClusterSweepReport cluster_sweep(const TrafficDataset& dataset,
                                 workload::Direction d,
                                 const ClusterSweepOptions& opts = {});

/// One direction's sweep inputs, built once and read by every k: the
/// z-normalized national series, their cached spectra and pairwise SBD
/// matrix (the quality indices' geometry), and k-Shape's member batch.
struct ClusterSweepInputs {
  std::vector<std::vector<double>> series;
  ts::SeriesBatch batch;
  ts::DistanceMatrix sbd_pairwise;
  ts::SeriesBatch members;
};

/// Checks the k range of `opts` against the dataset (PreconditionError)
/// and builds the inputs of direction `d`'s sweep.
ClusterSweepInputs prepare_cluster_sweep(const TrafficDataset& dataset,
                                         workload::Direction d,
                                         const ClusterSweepOptions& opts);

/// The sweep's row for one k. It only reads `inputs`, so rows of any k
/// and direction may run concurrently, and a row depends only on its k.
ClusterQualityRow cluster_sweep_row(const ClusterSweepInputs& inputs,
                                    std::size_t k,
                                    const ClusterSweepOptions& opts);

/// Per-service peak analysis (Figs. 4, 6, 7).
struct ServicePeaks {
  workload::ServiceIndex service = 0;
  std::string name;
  ts::PeakDetection detection;
  /// Topical times at which the service peaks (Fig. 6 sectors).
  std::vector<ts::TopicalTime> topical_times;
  /// Intensity per topical time (max/min - 1 over the detected interval),
  /// or nullopt when the service has no peak there (Fig. 7 bars).
  std::array<std::optional<double>, ts::kTopicalTimeCount> intensities{};
  /// Rising fronts that fall outside every topical time window.
  std::size_t unmatched_fronts = 0;
};

struct PeakReport {
  workload::Direction direction = workload::Direction::kDownlink;
  ts::ZScorePeakOptions options;
  std::vector<ServicePeaks> services;

  /// Number of distinct topical times observed across all services.
  std::size_t distinct_topical_times() const;
};

PeakReport analyze_peaks(const TrafficDataset& dataset, workload::Direction d,
                         const ts::ZScorePeakOptions& opts = {});

/// Weekend/working-day dichotomy (visible in every Fig. 4 series): the
/// ratio of a service's mean hourly volume on weekends to working days,
/// plus the night-to-day swing.
struct WeekSplit {
  workload::ServiceIndex service = 0;
  std::string name;
  /// Mean hourly volume Sat-Sun divided by mean hourly volume Mon-Fri.
  double weekend_to_weekday = 0.0;
  /// Mean volume in the 13-16h window divided by the 2-5h window.
  double day_to_night = 0.0;
  /// Dominant period of the weekly series in hours (expected: 24).
  std::size_t dominant_period_hours = 0;
  /// Autocorrelation at 24h — the daily seasonality strength.
  double daily_seasonality = 0.0;
};

struct WeekSplitReport {
  workload::Direction direction = workload::Direction::kDownlink;
  std::vector<WeekSplit> services;
};

WeekSplitReport analyze_week_split(const TrafficDataset& dataset,
                                   workload::Direction d);

}  // namespace appscope::core
