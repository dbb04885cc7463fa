#include "core/study.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/metrics_on.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace appscope::core {
namespace {

const TrafficDataset& dataset() {
  static const TrafficDataset d =
      TrafficDataset::generate(synth::ScenarioConfig::test_scale());
  return d;
}

const StudyReport& study() {
  static const StudyReport report = [] {
    StudyOptions options;
    options.cluster.k_min = 2;
    options.cluster.k_max = 8;  // keep the integration test quick
    return run_study(dataset(), options);
  }();
  return report;
}

TEST(Study, AllFigureReportsPopulated) {
  const auto& r = study();
  EXPECT_EQ(r.ranking[0].normalized_volumes.size(), 500u);
  EXPECT_EQ(r.top_services[0].ranking.size(), 20u);
  EXPECT_EQ(r.clustering[0].rows.size(), 7u);
  EXPECT_EQ(r.peaks.services.size(), 20u);
  EXPECT_EQ(r.concentration.name, "Twitter");
  EXPECT_EQ(r.map_a.name, "Twitter");
  EXPECT_EQ(r.map_b.name, "Netflix");
  EXPECT_EQ(r.correlation[0].r2.rows(), 20u);
  EXPECT_EQ(r.urbanization.services.size(), 20u);
  EXPECT_EQ(r.week_split.services.size(), 20u);
  EXPECT_FALSE(r.categories.categories.empty());
  EXPECT_EQ(r.slicing.slices.size(), 20u);
  EXPECT_GT(r.slicing.multiplexing_gain(), 0.0);
}

TEST(Study, DirectionsAreDistinct) {
  const auto& r = study();
  EXPECT_NE(r.top_services[0].ranking.front().name,
            r.top_services[1].ranking.front().name);
}

TEST(Study, HeadlineFindingsHold) {
  const auto& r = study();
  // Finding 1: diverse temporal signatures (many distinct peak sets).
  std::set<std::vector<ts::TopicalTime>> signatures;
  for (const auto& sp : r.peaks.services) signatures.insert(sp.topical_times);
  EXPECT_GE(signatures.size(), 10u);
  // Finding 2: similar spatial distributions (high mean pairwise r²).
  EXPECT_GT(r.correlation[0].mean_r2, 0.35);
  // Finding 3: urbanization drives volume, not timing.
  EXPECT_NEAR(r.urbanization.mean_volume_ratio(geo::Urbanization::kRural), 0.5,
              0.15);
  EXPECT_GT(r.urbanization.mean_temporal_r2(geo::Urbanization::kRural), 0.6);
}

TEST(Study, UnknownServiceNameThrows) {
  StudyOptions options;
  options.concentration_service = "Myspace";
  EXPECT_THROW(run_study(dataset(), options), util::PreconditionError);
}

TEST(Study, SweepRangeAboveServiceCountThrows) {
  StudyOptions options;
  options.cluster.k_max = dataset().service_count();
  EXPECT_THROW(run_study(dataset(), options), util::PreconditionError);
}

TEST(ParallelTrace, StudyStagesAreNamedUnderRunStudy) {
  // Every analysis of the study runs as a task of one pool batch; each must
  // still be recorded under its own stage name, wherever it ran, and link
  // back to core.run_study through the pool's captured span context.
  const test_support::MetricsOn metrics;
  util::ThreadPool::set_global_threads(4);
  const StudyOptions options;
  run_study(dataset(), options);
  util::ThreadPool::set_global_threads(0);

  const std::vector<util::TraceEvent> events =
      util::TraceRecorder::global().snapshot();
  std::map<std::uint64_t, const util::TraceEvent*> by_id;
  for (const util::TraceEvent& e : events) by_id.emplace(e.span_id, &e);
  const std::size_t sweep_rows = options.cluster.k_max - options.cluster.k_min + 1;
  std::map<std::string, std::size_t> expected{
      {"core.stage.clustering", workload::kDirectionCount * sweep_rows},
      {"core.stage.correlation", 2}, {"core.stage.concentration", 1},
      {"core.stage.urbanization", 1}, {"core.stage.peaks", 1},
      {"core.stage.categories", 1}, {"core.stage.week_split", 1},
      {"core.stage.usage_map", 2}, {"core.stage.ranking", 2},
      {"core.stage.top_services", 2}, {"core.stage.slicing", 1}};
  std::map<std::string, std::size_t> seen;
  for (const util::TraceEvent& e : events) {
    if (!e.name.starts_with("core.stage.")) continue;
    ++seen[e.name];
    const auto parent = by_id.find(e.parent_id);
    ASSERT_NE(parent, by_id.end()) << e.name;
    EXPECT_EQ(parent->second->name, "pool.task") << e.name;
    const util::TraceEvent* ancestor = parent->second;
    while (ancestor->name != "core.run_study") {
      const auto next = by_id.find(ancestor->parent_id);
      ASSERT_NE(next, by_id.end())
          << e.name << ": chain breaks at " << ancestor->name;
      ancestor = next->second;
    }
  }
  EXPECT_EQ(seen, expected);
}

}  // namespace
}  // namespace appscope::core
