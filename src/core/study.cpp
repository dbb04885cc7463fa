#include "core/study.hpp"

#include <functional>
#include <vector>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace appscope::core {

namespace {
workload::ServiceIndex resolve(const TrafficDataset& dataset,
                               const std::string& name) {
  const auto idx = dataset.catalog().find(name);
  APPSCOPE_REQUIRE(idx.has_value(), "run_study: unknown service: " + name);
  return *idx;
}

/// One analysis task of the study batch: runs `fn` under the stage timer
/// (and so the trace span) `name`, on whichever thread claims the task,
/// and stores its result in `out`, a report field no other task writes.
template <typename T, typename Fn>
std::function<void()> staged(const char* name, T& out, Fn fn) {
  return [name, &out, fn = std::move(fn)] {
    const util::StageTimer timer(name);
    out = fn();
  };
}
}  // namespace

StudyReport run_study(const TrafficDataset& dataset, const StudyOptions& options) {
  const util::StageTimer timer("core.run_study");
  const auto svc_a = resolve(dataset, options.map_service_a);
  const auto svc_b = resolve(dataset, options.map_service_b);
  const auto svc_conc = resolve(dataset, options.concentration_service);

  using workload::Direction;
  constexpr Direction kDl = Direction::kDownlink;
  constexpr Direction kUl = Direction::kUplink;
  const ClusterSweepOptions& sweep = options.cluster;
  // Checks the k range before any analysis runs.
  const std::array<ClusterSweepInputs, workload::kDirectionCount> inputs{
      prepare_cluster_sweep(dataset, kDl, sweep),
      prepare_cluster_sweep(dataset, kUl, sweep)};

  StudyReport report;
  for (const Direction d : {kDl, kUl}) {
    ClusterSweepReport& c = report.clustering[static_cast<std::size_t>(d)];
    c.direction = d;
    c.rows.resize(sweep.k_max - sweep.k_min + 1);
  }

  // The whole study is one pool batch, longest task first: the sweep rows
  // (the quality step is O(k²), so k descends; the directions interleave),
  // then the other analyses in the order of their measured cost. The order
  // is a fixed estimate and cannot change the report: every task writes
  // its own field, and the pool calls inside a task run inline on its
  // thread, so each value comes from the same code at any thread count.
  std::vector<std::function<void()>> tasks;
  for (std::size_t k = sweep.k_max; k >= sweep.k_min; --k) {
    for (const Direction d : {kDl, kUl}) {
      const auto di = static_cast<std::size_t>(d);
      tasks.push_back(staged("core.stage.clustering",
                             report.clustering[di].rows[k - sweep.k_min],
                             [&inputs, &sweep, di, k] {
                               return cluster_sweep_row(inputs[di], k, sweep);
                             }));
    }
  }
  for (const Direction d : {kDl, kUl}) {
    tasks.push_back(staged(
        "core.stage.correlation",
        report.correlation[static_cast<std::size_t>(d)],
        [&dataset, d] { return analyze_spatial_correlation(dataset, d); }));
  }
  tasks.push_back(staged("core.stage.concentration", report.concentration, [&] {
    return analyze_concentration(dataset, svc_conc, kDl);
  }));
  tasks.push_back(staged("core.stage.urbanization", report.urbanization,
                         [&] { return analyze_urbanization(dataset, kDl); }));
  tasks.push_back(staged("core.stage.peaks", report.peaks, [&] {
    return analyze_peaks(dataset, kDl, options.peaks);
  }));
  tasks.push_back(staged("core.stage.categories", report.categories, [&] {
    return analyze_category_heterogeneity(dataset, kDl);
  }));
  tasks.push_back(staged("core.stage.week_split", report.week_split,
                         [&] { return analyze_week_split(dataset, kDl); }));
  tasks.push_back(staged("core.stage.usage_map", report.map_a, [&] {
    return analyze_usage_map(dataset, svc_a, kDl);
  }));
  tasks.push_back(staged("core.stage.usage_map", report.map_b, [&] {
    return analyze_usage_map(dataset, svc_b, kDl);
  }));
  for (const Direction d : {kDl, kUl}) {
    tasks.push_back(staged(
        "core.stage.ranking", report.ranking[static_cast<std::size_t>(d)],
        [&dataset, d] { return analyze_service_ranking(dataset, d); }));
  }
  for (const Direction d : {kDl, kUl}) {
    tasks.push_back(staged(
        "core.stage.top_services",
        report.top_services[static_cast<std::size_t>(d)],
        [&dataset, d] { return analyze_top_services(dataset, d); }));
  }
  tasks.push_back(staged("core.stage.slicing", report.slicing,
                         [&] { return analyze_slicing(dataset, kDl); }));

  // A failing task surfaces once the batch drains, as the lowest-index
  // failure (util::ThreadPool::run).
  util::parallel_for(0, tasks.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) tasks[i]();
  });
  return report;
}

}  // namespace appscope::core
