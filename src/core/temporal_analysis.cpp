#include "core/temporal_analysis.hpp"

#include <limits>

#include "la/vector_ops.hpp"
#include "ts/autocorrelation.hpp"
#include "ts/kmeans.hpp"
#include "ts/series_batch.hpp"
#include "ts/znorm.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace appscope::core {

namespace {
std::vector<std::vector<double>> znormalized_national_series(
    const TrafficDataset& dataset, workload::Direction d) {
  std::vector<std::vector<double>> series;
  series.reserve(dataset.service_count());
  for (std::size_t s = 0; s < dataset.service_count(); ++s) {
    series.push_back(ts::znormalize(
        std::span<const double>(dataset.national_series(s, d))));
  }
  return series;
}
}  // namespace

std::size_t ClusterSweepReport::best_k_by_db_star() const {
  APPSCOPE_REQUIRE(!rows.empty(), "ClusterSweepReport: empty sweep");
  std::size_t best = rows.front().k;
  double best_value = std::numeric_limits<double>::infinity();
  for (const auto& row : rows) {
    if (row.kshape.davies_bouldin_star < best_value) {
      best_value = row.kshape.davies_bouldin_star;
      best = row.k;
    }
  }
  return best;
}

std::size_t ClusterSweepReport::best_k_by_silhouette() const {
  APPSCOPE_REQUIRE(!rows.empty(), "ClusterSweepReport: empty sweep");
  std::size_t best = rows.front().k;
  double best_value = -std::numeric_limits<double>::infinity();
  for (const auto& row : rows) {
    if (row.kshape.silhouette > best_value) {
      best_value = row.kshape.silhouette;
      best = row.k;
    }
  }
  return best;
}

ClusterSweepInputs prepare_cluster_sweep(const TrafficDataset& dataset,
                                         workload::Direction d,
                                         const ClusterSweepOptions& opts) {
  APPSCOPE_REQUIRE(opts.k_min >= 2, "cluster_sweep: k_min must be >= 2");
  APPSCOPE_REQUIRE(opts.k_max >= opts.k_min, "cluster_sweep: k_max < k_min");
  APPSCOPE_REQUIRE(opts.k_max < dataset.service_count(),
                   "cluster_sweep: k_max must be below the service count");

  std::vector<std::vector<double>> series =
      znormalized_national_series(dataset, d);
  // k-Shape z-normalizes its input once more; doing that here, once, hands
  // every k the same member rows a per-k kshape(series) call would build.
  std::vector<std::vector<double>> members;
  members.reserve(series.size());
  for (const auto& s : series) {
    members.push_back(ts::znormalize(std::span<const double>(s)));
  }
  // Dunn/silhouette read point pairs from the SBD matrix; DB/DB* reuse the
  // cached point spectra.
  ts::SeriesBatch batch(series);
  ts::DistanceMatrix sbd_pairwise = ts::sbd_distance_matrix(batch);
  return {.series = std::move(series),
          .batch = std::move(batch),
          .sbd_pairwise = std::move(sbd_pairwise),
          .members = ts::SeriesBatch(members)};
}

ClusterQualityRow cluster_sweep_row(const ClusterSweepInputs& inputs,
                                    std::size_t k,
                                    const ClusterSweepOptions& opts) {
  ClusterQualityRow row;
  row.k = k;

  ts::KShapeOptions kopts;
  kopts.k = k;
  kopts.seed = opts.seed;
  const ts::KShapeResult kshape = ts::kshape(inputs.members, kopts);
  row.kshape = ts::evaluate_quality(
      inputs.batch, ts::ClusteringView{kshape.assignments, kshape.centroids},
      inputs.sbd_pairwise);

  if (opts.include_kmeans_baseline) {
    ts::KMeansOptions mopts;
    mopts.k = k;
    mopts.seed = opts.seed;
    const ts::KMeansResult kmeans = ts::kmeans(inputs.series, mopts);
    row.kmeans = ts::evaluate_quality(
        inputs.series, ts::ClusteringView{kmeans.assignments, kmeans.centroids},
        [](std::span<const double> a, std::span<const double> b) {
          return la::distance(a, b);
        });
  }
  return row;
}

ClusterSweepReport cluster_sweep(const TrafficDataset& dataset,
                                 workload::Direction d,
                                 const ClusterSweepOptions& opts) {
  const ClusterSweepInputs inputs = prepare_cluster_sweep(dataset, d, opts);
  ClusterSweepReport report;
  report.direction = d;
  report.rows.resize(opts.k_max - opts.k_min + 1);
  // One pool task per k, largest k first: the quality step is O(k²), so
  // the longest rows start first. The pool calls inside k-Shape run inline
  // on the task's thread, and each row depends only on k, so the report is
  // the same at any thread count.
  util::parallel_for(
      0, report.rows.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t k = opts.k_max - i;
          report.rows[k - opts.k_min] = cluster_sweep_row(inputs, k, opts);
        }
      });
  return report;
}

std::size_t PeakReport::distinct_topical_times() const {
  std::array<bool, ts::kTopicalTimeCount> seen{};
  for (const auto& s : services) {
    for (const auto t : s.topical_times) seen[static_cast<std::size_t>(t)] = true;
  }
  std::size_t count = 0;
  for (const bool b : seen) count += b ? 1 : 0;
  return count;
}

PeakReport analyze_peaks(const TrafficDataset& dataset, workload::Direction d,
                         const ts::ZScorePeakOptions& opts) {
  PeakReport report;
  report.direction = d;
  report.options = opts;
  report.services.reserve(dataset.service_count());

  for (std::size_t s = 0; s < dataset.service_count(); ++s) {
    const auto& series = dataset.national_series(s, d);
    ServicePeaks sp;
    sp.service = s;
    sp.name = dataset.catalog()[s].name;
    sp.detection = ts::detect_peaks(series, opts);
    sp.topical_times = ts::peak_topical_times(sp.detection);
    sp.intensities = ts::topical_peak_intensities(series, sp.detection);
    for (const ts::PeakInterval& interval : sp.detection.intervals) {
      const std::size_t apex = ts::interval_apex(sp.detection, interval);
      if (apex < ts::kHoursPerWeek &&
          !ts::classify_topical(ts::week_hour(apex))) {
        ++sp.unmatched_fronts;
      }
    }
    report.services.push_back(std::move(sp));
  }
  return report;
}

WeekSplitReport analyze_week_split(const TrafficDataset& dataset,
                                   workload::Direction d) {
  WeekSplitReport report;
  report.direction = d;
  report.services.reserve(dataset.service_count());

  for (std::size_t s = 0; s < dataset.service_count(); ++s) {
    const auto& series = dataset.national_series(s, d);
    WeekSplit ws;
    ws.service = s;
    ws.name = dataset.catalog()[s].name;

    double weekend = 0.0;
    double weekday = 0.0;
    double day = 0.0;
    double night = 0.0;
    std::size_t day_n = 0;
    std::size_t night_n = 0;
    for (std::size_t h = 0; h < series.size(); ++h) {
      const ts::WeekHour wh = ts::week_hour(h);
      (wh.is_weekend() ? weekend : weekday) += series[h];
      const std::size_t hod = wh.hour_of_day();
      if (hod >= 13 && hod < 16) {
        day += series[h];
        ++day_n;
      } else if (hod >= 2 && hod < 5) {
        night += series[h];
        ++night_n;
      }
    }
    const double weekend_mean = weekend / 48.0;
    const double weekday_mean = weekday / 120.0;
    APPSCOPE_REQUIRE(weekday_mean > 0.0, "analyze_week_split: empty weekdays");
    ws.weekend_to_weekday = weekend_mean / weekday_mean;
    APPSCOPE_REQUIRE(night_n > 0 && night > 0.0,
                     "analyze_week_split: empty night window");
    ws.day_to_night = (day / static_cast<double>(day_n)) /
                      (night / static_cast<double>(night_n));
    ws.dominant_period_hours = ts::dominant_period(series, 12, 84);
    ws.daily_seasonality = ts::seasonality_strength(series, 24);
    report.services.push_back(std::move(ws));
  }
  return report;
}

}  // namespace appscope::core
