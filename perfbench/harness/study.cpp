// study-example: the analyst's workload. Set-up generates example-scale
// datasets; each timed repetition is core::run_study plus the Markdown report
// rendered to a discarded (hashed) stream, on a global pool of 4 threads.
#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "harness.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"
#include "util/trace_analysis.hpp"

namespace perfbench {

namespace {

using appscope::core::StudyReport;
using appscope::core::TrafficDataset;
using appscope::workload::Direction;

constexpr std::size_t kDatasets = 3;
constexpr std::uint64_t kSalt = 1;

struct Rep {
  double seconds = 0.0;
  std::uint64_t report_hash = 0;
};

Rep untraced_rep(const TrafficDataset& dataset) {
  const auto t0 = Clock::now();
  const StudyReport report = appscope::core::run_study(dataset);
  HashStream out;
  appscope::core::write_markdown_report(report, dataset, out);
  return {seconds_between(t0, Clock::now()), out.hash()};
}

appscope::workload::ServiceIndex service(const TrafficDataset& dataset,
                                         const std::string& name) {
  return dataset.catalog().find(name).value();
}

/// run_study's analyses called one by one, in its order and with its
/// default options, each under a harness span naming its layer.
Rep traced_rep(const TrafficDataset& dataset, Tracer& tracer) {
  namespace core = appscope::core;
  const core::StudyOptions options;
  const auto t0 = Clock::now();
  const auto svc_a = service(dataset, options.map_service_a);
  const auto svc_b = service(dataset, options.map_service_b);
  const auto svc_conc = service(dataset, options.concentration_service);
  const char* other = "core.other_analyses_s";
  const auto layer = [&](const char* name, auto&& fn) {
    const Tracer::Scope s(&tracer, name);
    return fn();
  };
  using Pair = std::array<core::ServiceRankingReport, appscope::workload::kDirectionCount>;
  const StudyReport report{
      .ranking = layer(other,
                       [&] {
                         return Pair{core::analyze_service_ranking(dataset, Direction::kDownlink),
                                     core::analyze_service_ranking(dataset, Direction::kUplink)};
                       }),
      .top_services =
          layer(other,
                [&] {
                  return std::array<core::TopServicesReport, appscope::workload::kDirectionCount>{
                      core::analyze_top_services(dataset, Direction::kDownlink),
                      core::analyze_top_services(dataset, Direction::kUplink)};
                }),
      .clustering =
          layer("core.clustering_s",
                [&] {
                  return std::array<core::ClusterSweepReport, appscope::workload::kDirectionCount>{
                      core::cluster_sweep(dataset, Direction::kDownlink, options.cluster),
                      core::cluster_sweep(dataset, Direction::kUplink, options.cluster)};
                }),
      .peaks = layer(other,
                     [&] {
                       return core::analyze_peaks(dataset, Direction::kDownlink, options.peaks);
                     }),
      .concentration = layer(other,
                             [&] {
                               return core::analyze_concentration(dataset, svc_conc,
                                                                  Direction::kDownlink);
                             }),
      .map_a = layer(other,
                     [&] { return core::analyze_usage_map(dataset, svc_a, Direction::kDownlink); }),
      .map_b = layer(other,
                     [&] { return core::analyze_usage_map(dataset, svc_b, Direction::kDownlink); }),
      .correlation =
          layer("core.correlation_s",
                [&] {
                  return std::array<core::SpatialCorrelationReport,
                                    appscope::workload::kDirectionCount>{
                      core::analyze_spatial_correlation(dataset, Direction::kDownlink),
                      core::analyze_spatial_correlation(dataset, Direction::kUplink)};
                }),
      .urbanization =
          layer(other, [&] { return core::analyze_urbanization(dataset, Direction::kDownlink); }),
      .week_split =
          layer(other, [&] { return core::analyze_week_split(dataset, Direction::kDownlink); }),
      .categories = layer(other,
                          [&] {
                            return core::analyze_category_heterogeneity(dataset,
                                                                        Direction::kDownlink);
                          }),
      .slicing = layer(other,
                       [&] { return core::analyze_slicing(dataset, Direction::kDownlink); }),
  };
  HashStream out;
  {
    Tracer::Scope s(&tracer, "core.report_render_s");
    core::write_markdown_report(report, dataset, out);
  }
  return {seconds_between(t0, Clock::now()), out.hash()};
}

/// Summed duration of every program span named `name`. Its self time
/// alone reads near zero: the pool.batch / pool.task spans of the work it
/// submits cover the span, so their time is counted with it.
double span_seconds(const appscope::util::TraceSummary& summary,
                    const std::string& name) {
  for (const auto& s : summary.by_name) {
    if (s.name == name) return static_cast<double>(s.total_ns) * 1e-9;
  }
  return 0.0;
}

}  // namespace

Outcome run_study(const Options& options) {
  Outcome out;
  appscope::util::ThreadPool::set_global_threads(kThreadBudget);
  // Set-up generates kDatasets datasets over different traffic. One
  // repetition runs the study on each of them and counts as their mean, so
  // a sample averages over inputs rather than one seed's k-Shape
  // convergence.
  std::vector<TrafficDataset> datasets;
  for (std::size_t i = 0; i < kDatasets; ++i) {
    const auto config = seeded(appscope::synth::ScenarioConfig::example_scale(),
                               options.seed, kSalt + i);
    const auto t0 = Clock::now();
    datasets.push_back(TrafficDataset::generate(config));
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Every repetition on one dataset must render the same report bytes.
  std::vector<std::optional<std::uint64_t>> expected(kDatasets);
  const auto check = [&](std::size_t d, const Rep& rep, const char* what) {
    ++out.attempted;
    if (!expected[d]) expected[d] = rep.report_hash;
    if (rep.report_hash != *expected[d]) {
      out.fail(std::string("study: ") + what + " report bytes differ");
    }
  };
  // Mean milliseconds per study over one pass of every dataset.
  const auto pass = [&](const auto& rep_fn, const char* what) {
    double seconds = 0.0;
    for (std::size_t d = 0; d < kDatasets; ++d) {
      const Rep rep = rep_fn(datasets[d]);
      check(d, rep, what);
      seconds += rep.seconds;
    }
    return seconds * 1e3 / kDatasets;
  };

  const double phase = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> untraced;
  const auto start = Clock::now();
  while (untraced.empty() || seconds_between(start, Clock::now()) < phase) {
    untraced.push_back(pass(untraced_rep, "repetition"));
  }
  out.latency_name = "study repetition (run_study + report), mean over " +
                     std::to_string(kDatasets) + " datasets";
  out.figures.push_back({"study_s", median(untraced) / 1e3, "s", untraced.size()});
  if (!options.trace) {
    out.latency_ms = untraced;
    return out;
  }

  // Traced phase: harness spans around each layer, plus the program's own
  // ts.* spans (recorded while the metrics gate is on).
  auto& recorder = appscope::util::TraceRecorder::global();
  appscope::util::MetricsRegistry::set_enabled(true);
  std::map<std::string, std::vector<double>> per_rep;
  std::vector<double> traced;
  const auto traced_start = Clock::now();
  while (traced.empty() || seconds_between(traced_start, Clock::now()) < phase) {
    recorder.reset();
    Tracer tracer;
    traced.push_back(pass([&](const TrafficDataset& d) { return traced_rep(d, tracer); },
                          "traced repetition"));
    const auto summary = appscope::util::summarize_trace(recorder.snapshot());
    for (const char* layer : {"core.clustering_s", "core.correlation_s",
                              "core.other_analyses_s", "core.report_render_s"}) {
      per_rep[layer].push_back(tracer.total(layer) / kDatasets);
    }
    per_rep["ts.kshape_refine_s"].push_back(span_seconds(summary, "ts.kshape.refine") /
                                            kDatasets);
    per_rep["ts.sbd_matrix_s"].push_back(span_seconds(summary, "ts.sbd_matrix") / kDatasets);
  }
  appscope::util::MetricsRegistry::set_enabled(false);
  recorder.reset();

  // The report must not depend on the thread count.
  appscope::util::ThreadPool::set_global_threads(1);
  check(0, untraced_rep(datasets[0]), "1-thread");
  appscope::util::ThreadPool::set_global_threads(kThreadBudget);

  for (const auto& [layer, values] : per_rep) out.layers[layer] = median(values);
  out.layers["synth.generate_s"] = median(out.setup_s);
  out.layers["trace.overhead_ms"] = median(traced) - median(untraced);
  return out;
}

}  // namespace perfbench
