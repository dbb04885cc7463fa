// Metrics are pure observation: every instrumented stage must produce
// bitwise-identical results whether the metrics gate is on or off. Each
// case below runs one instrumented pipeline stage both ways and compares
// the outputs exactly (doubles with ==, not tolerances).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/report.hpp"
#include "core/study.hpp"
#include "obs/sampler.hpp"
#include "geo/territory.hpp"
#include "la/fft_plan.hpp"
#include "stats/bootstrap.hpp"
#include "stats/correlation.hpp"
#include "support/cell_fold.hpp"
#include "support/metrics_on.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "synth/sinks.hpp"
#include "ts/kshape.hpp"
#include "ts/peaks.hpp"
#include "ts/sbd.hpp"
#include "ts/series_batch.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace appscope {
namespace {

/// Runs `fn` twice — metrics gate off, then on — and returns both results.
template <typename Fn>
auto both_ways(Fn&& fn) {
  const bool was = util::MetricsRegistry::enabled();
  util::MetricsRegistry::set_enabled(false);
  auto off = fn();
  util::MetricsRegistry::set_enabled(true);
  auto on = fn();
  util::MetricsRegistry::set_enabled(was);
  util::MetricsRegistry::global().reset();
  util::TraceRecorder::global().reset();
  return std::pair(std::move(off), std::move(on));
}

std::vector<std::vector<double>> fixture_series(std::size_t count) {
  std::vector<std::vector<double>> series;
  util::Rng rng(41);
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<double> v(168);
    const double phase = rng.uniform(0.0, 6.28);
    for (std::size_t h = 0; h < v.size(); ++h) {
      v[h] = 5.0 +
             std::sin(2.0 * M_PI * static_cast<double>(h % 24) / 24.0 + phase) +
             0.3 * rng.normal();
    }
    series.push_back(std::move(v));
  }
  return series;
}

TEST(MetricsDeterminism, GeneratorRowStreamIsIdentical) {
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = 200;
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);
  const auto [off, on] = both_ways([&gen] {
    test_support::RowRecorder recorder;
    gen.generate(recorder);
    return recorder.rows();
  });
  ASSERT_EQ(off.size(), on.size());
  // Equality of the whole row stream: headers and every hour's doubles.
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_TRUE(off[i] == on[i]) << "row " << i;
  }
}

TEST(MetricsDeterminism, ClusteringIsIdentical) {
  const auto series = fixture_series(24);
  ts::KShapeOptions opts;
  opts.k = 4;
  const auto [off, on] =
      both_ways([&] { return ts::kshape(series, opts); });
  EXPECT_EQ(off.assignments, on.assignments);
  EXPECT_EQ(off.iterations, on.iterations);
  EXPECT_EQ(off.centroids, on.centroids);
  EXPECT_EQ(off.inertia, on.inertia);
}

TEST(MetricsDeterminism, SbdMatrixIsIdentical) {
  const auto series = fixture_series(16);
  const auto [off, on] = both_ways([&] {
    const ts::SeriesBatch batch(series);
    return ts::sbd_distance_matrix(batch).cells();
  });
  EXPECT_EQ(off, on);
}

TEST(MetricsDeterminism, FftTransformsAreIdentical) {
  // The plan-cache counters (la.fft.transforms, la.fft.plan_cache_hits,
  // la.fft.plan_cache_misses) must stay observation-only: same spectra and
  // correlations bit for bit with the gate on or off.
  const auto series = fixture_series(2);
  const auto [off, on] = both_ways([&] {
    const la::RealFftPlan& plan = la::RealFftPlan::plan_for(512);
    std::vector<double> flat;
    std::vector<std::complex<double>> spectrum(plan.spectrum_size());
    plan.forward(series[0], spectrum);
    for (const auto& bin : spectrum) {
      flat.push_back(bin.real());
      flat.push_back(bin.imag());
    }
    std::vector<double> back(plan.size());
    plan.inverse(spectrum, back);
    flat.insert(flat.end(), back.begin(), back.end());
    const ts::SbdResult corr = ts::sbd(series[0], series[1]);
    flat.push_back(corr.distance);
    flat.push_back(corr.ncc);
    flat.push_back(static_cast<double>(corr.shift));
    return flat;
  });
  EXPECT_EQ(off, on);
}

TEST(MetricsDeterminism, FftCountersAreRecordedWhenEnabled) {
  const bool was = util::MetricsRegistry::enabled();
  util::MetricsRegistry::set_enabled(true);
  util::MetricsRegistry::global().reset();
  const auto series = fixture_series(2);
  (void)ts::sbd(series[0], series[1]);
  const util::MetricsSnapshot snap = util::MetricsRegistry::global().snapshot();
  util::MetricsRegistry::set_enabled(was);
  util::MetricsRegistry::global().reset();

  // At m = 168 SBD runs one rfft per input plus the inverse: at least 3
  // transforms, and its plan lookup lands as either a hit or a miss.
  ASSERT_TRUE(snap.counters.contains("la.fft.transforms"));
  EXPECT_GE(snap.counters.at("la.fft.transforms"), 3u);
  const std::uint64_t hits =
      snap.counters.contains("la.fft.plan_cache_hits")
          ? snap.counters.at("la.fft.plan_cache_hits")
          : 0;
  const std::uint64_t misses =
      snap.counters.contains("la.fft.plan_cache_misses")
          ? snap.counters.at("la.fft.plan_cache_misses")
          : 0;
  EXPECT_GE(hits + misses, 1u);
}

TEST(MetricsDeterminism, PeakDetectionIsIdentical) {
  const auto series = fixture_series(1).front();
  const auto [off, on] =
      both_ways([&] { return ts::detect_peaks(series, {}); });
  EXPECT_EQ(off.signal, on.signal);
  EXPECT_EQ(off.processed, on.processed);
  EXPECT_EQ(off.smoothed, on.smoothed);
  EXPECT_EQ(off.rising_fronts, on.rising_fronts);
}

TEST(MetricsDeterminism, StudyReportIsIdenticalWithTraceExportOn) {
  // The end-to-end acceptance check of the tracing v2 contract: a full
  // study run with span tracing + trace export enabled renders the exact
  // same Markdown report as one with every observability switch off —
  // and leaves a well-formed Chrome trace document behind.
  auto config = synth::ScenarioConfig::test_scale();
  const core::TrafficDataset dataset = core::TrafficDataset::generate(config);
  core::StudyOptions quick;
  quick.cluster.k_min = 2;
  quick.cluster.k_max = 4;  // keep the double run quick

  const auto render = [&dataset](const core::StudyReport& report) {
    std::ostringstream out;
    core::write_markdown_report(report, dataset, out, {});
    return out.str();
  };

  const bool was = util::MetricsRegistry::enabled();
  util::MetricsRegistry::set_enabled(false);
  const std::string plain = render(core::run_study(dataset, quick));
  util::MetricsRegistry::set_enabled(was);

  const std::string trace_path =
      ::testing::TempDir() + "appscope_study_trace.json";
  std::string observed;
  {
    const test_support::MetricsOn traced;
    observed = render(core::run_study(dataset, quick));
    util::write_trace_json(trace_path);
  }

  EXPECT_EQ(plain, observed) << "tracing must not perturb the report";

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path;
  std::ostringstream text;
  text << in.rdbuf();
  const util::Json doc = util::Json::parse(text.str());
  EXPECT_EQ(doc.at("schema").as_string(), "appscope.trace/1");
  EXPECT_EQ(doc.at("dropped_events").as_int(), 0);
  bool found_root = false;
  for (const util::Json& event : doc.at("traceEvents").as_array()) {
    EXPECT_EQ(event.at("ph").as_string(), "X");
    if (event.at("name").as_string() == "core.run_study") found_root = true;
  }
  EXPECT_TRUE(found_root) << "the study-wide span must be in the export";
  std::remove(trace_path.c_str());
}

TEST(MetricsDeterminism, ClusteringIsIdenticalWithSamplerAttached) {
  // The live telemetry sampler is a pure observer too: a background
  // MetricsSampler ticking at full speed during an instrumented clustering
  // run must not perturb a single bit of the result.
  const auto series = fixture_series(24);
  ts::KShapeOptions opts;
  opts.k = 4;

  const bool was = util::MetricsRegistry::enabled();
  util::MetricsRegistry::set_enabled(false);
  const auto off = ts::kshape(series, opts);

  util::MetricsRegistry::set_enabled(true);
  util::MetricsRegistry::global().reset();
  obs::MetricsSampler sampler({std::chrono::milliseconds(1)});
  sampler.start();
  // One run may end before the first tick, so repeat the instrumented run,
  // checking every result, until the sampler has ticked twice during the
  // runs. The deadline turns a sampler that never ticks into a failure.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool timed_out = false;
  std::size_t runs = 0;
  do {
    const auto on = ts::kshape(series, opts);
    ++runs;
    EXPECT_EQ(off.assignments, on.assignments) << "run " << runs;
    EXPECT_EQ(off.iterations, on.iterations) << "run " << runs;
    EXPECT_EQ(off.centroids, on.centroids) << "run " << runs;
    EXPECT_EQ(off.inertia, on.inertia) << "run " << runs;
    if (::testing::Test::HasFailure()) break;
    timed_out = std::chrono::steady_clock::now() > deadline;
  } while (!timed_out && sampler.samples() < 2);
  sampler.stop();
  util::MetricsRegistry::set_enabled(was);
  util::MetricsRegistry::global().reset();
  util::TraceRecorder::global().reset();

  EXPECT_FALSE(timed_out) << sampler.samples() << " ticks in " << runs
                          << " runs";
  // The sampler did retain series about the runs it watched.
  std::vector<obs::SeriesSnapshot> retained = sampler.series();
  EXPECT_FALSE(retained.empty());
}

TEST(MetricsDeterminism, BootstrapAndCorrelationAreIdentical) {
  const auto series = fixture_series(6);
  const auto [off_ci, on_ci] = both_ways([&] {
    return stats::bootstrap_mean_ci(series.front(), 400, 0.05, 99);
  });
  EXPECT_EQ(off_ci.point, on_ci.point);
  EXPECT_EQ(off_ci.lower, on_ci.lower);
  EXPECT_EQ(off_ci.upper, on_ci.upper);

  const auto [off_r2, on_r2] =
      both_ways([&] { return stats::pairwise_r2(series); });
  ASSERT_EQ(off_r2.rows(), on_r2.rows());
  for (std::size_t i = 0; i < off_r2.rows(); ++i) {
    for (std::size_t j = 0; j < off_r2.cols(); ++j) {
      EXPECT_EQ(off_r2(i, j), on_r2(i, j)) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace appscope
