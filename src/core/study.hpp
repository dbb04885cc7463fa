// appscope/core/study.hpp
//
// End-to-end driver: runs every analysis of the paper on one dataset and
// bundles the reports. This is the "one call reproduces the study" API used
// by the examples and by EXPERIMENTS.md generation; the per-figure benches
// call the individual analyses directly.
#pragma once

#include "core/category_analysis.hpp"
#include "core/rank_analysis.hpp"
#include "core/slicing.hpp"
#include "core/spatial_analysis.hpp"
#include "core/temporal_analysis.hpp"
#include "core/urbanization_analysis.hpp"

namespace appscope::core {

struct StudyOptions {
  /// Services mapped in Fig. 9 (defaults: Twitter and Netflix).
  std::string map_service_a = "Twitter";
  std::string map_service_b = "Netflix";
  /// Service of the Fig. 8 concentration analysis.
  std::string concentration_service = "Twitter";
  ClusterSweepOptions cluster;
  ts::ZScorePeakOptions peaks;
};

struct StudyReport {
  // Fig. 2 / Fig. 3 (both directions).
  std::array<ServiceRankingReport, workload::kDirectionCount> ranking;
  std::array<TopServicesReport, workload::kDirectionCount> top_services;
  // Fig. 5 (both directions).
  std::array<ClusterSweepReport, workload::kDirectionCount> clustering;
  // Figs. 4/6/7 (downlink, as in the paper).
  PeakReport peaks;
  // Fig. 8.
  ConcentrationReport concentration;
  // Fig. 9.
  UsageMapReport map_a;
  UsageMapReport map_b;
  // Fig. 10 (both directions).
  std::array<SpatialCorrelationReport, workload::kDirectionCount> correlation;
  // Fig. 11.
  UrbanizationReport urbanization;
  // Beyond the figures: weekend/weekday dichotomy + daily periodicity,
  // within-category heterogeneity (Sec. 4's argument), and the Sec. 1
  // slicing motivation.
  WeekSplitReport week_split;
  CategoryReport categories;
  SlicingReport slicing;
};

/// Runs the full study. The dataset must use the paper catalog (service
/// names in StudyOptions must resolve).
StudyReport run_study(const TrafficDataset& dataset,
                      const StudyOptions& options = {});

}  // namespace appscope::core
