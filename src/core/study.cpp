#include "core/study.hpp"

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace appscope::core {

namespace {
workload::ServiceIndex resolve(const TrafficDataset& dataset,
                               const std::string& name) {
  const auto idx = dataset.catalog().find(name);
  APPSCOPE_REQUIRE(idx.has_value(), "run_study: unknown service: " + name);
  return *idx;
}

/// Runs one analysis stage under a stage timer (and so a trace span) so
/// per-stage wall time shows up in the exported metrics document.
template <typename Fn>
auto staged(const char* name, Fn&& fn) {
  const util::StageTimer timer(name);
  return fn();
}
}  // namespace

StudyReport run_study(const TrafficDataset& dataset, const StudyOptions& options) {
  const util::StageTimer timer("core.run_study");
  const auto svc_a = resolve(dataset, options.map_service_a);
  const auto svc_b = resolve(dataset, options.map_service_b);
  const auto svc_conc = resolve(dataset, options.concentration_service);

  using workload::Direction;
  StudyReport report{
      .ranking = staged("core.stage.ranking",
                        [&] {
                          return std::array<ServiceRankingReport,
                                            workload::kDirectionCount>{
                              analyze_service_ranking(dataset,
                                                      Direction::kDownlink),
                              analyze_service_ranking(dataset,
                                                      Direction::kUplink)};
                        }),
      .top_services =
          staged("core.stage.top_services",
                 [&] {
                   return std::array<TopServicesReport,
                                     workload::kDirectionCount>{
                       analyze_top_services(dataset, Direction::kDownlink),
                       analyze_top_services(dataset, Direction::kUplink)};
                 }),
      .clustering =
          staged("core.stage.clustering",
                 [&] {
                   return std::array<ClusterSweepReport,
                                     workload::kDirectionCount>{
                       cluster_sweep(dataset, Direction::kDownlink,
                                     options.cluster),
                       cluster_sweep(dataset, Direction::kUplink,
                                     options.cluster)};
                 }),
      .peaks = staged("core.stage.peaks",
                      [&] {
                        return analyze_peaks(dataset, Direction::kDownlink,
                                             options.peaks);
                      }),
      .concentration = staged("core.stage.concentration",
                              [&] {
                                return analyze_concentration(
                                    dataset, svc_conc, Direction::kDownlink);
                              }),
      .map_a = staged("core.stage.usage_map",
                      [&] {
                        return analyze_usage_map(dataset, svc_a,
                                                 Direction::kDownlink);
                      }),
      .map_b = staged("core.stage.usage_map",
                      [&] {
                        return analyze_usage_map(dataset, svc_b,
                                                 Direction::kDownlink);
                      }),
      .correlation =
          staged("core.stage.correlation",
                 [&] {
                   return std::array<SpatialCorrelationReport,
                                     workload::kDirectionCount>{
                       analyze_spatial_correlation(dataset,
                                                   Direction::kDownlink),
                       analyze_spatial_correlation(dataset,
                                                   Direction::kUplink)};
                 }),
      .urbanization =
          staged("core.stage.urbanization",
                 [&] {
                   return analyze_urbanization(dataset, Direction::kDownlink);
                 }),
      .week_split =
          staged("core.stage.week_split",
                 [&] {
                   return analyze_week_split(dataset, Direction::kDownlink);
                 }),
      .categories = staged("core.stage.categories",
                           [&] {
                             return analyze_category_heterogeneity(
                                 dataset, Direction::kDownlink);
                           }),
      .slicing = staged("core.stage.slicing",
                        [&] {
                          return analyze_slicing(dataset,
                                                 Direction::kDownlink);
                        }),
  };

  return report;
}

}  // namespace appscope::core
