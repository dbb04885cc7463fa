// Fig. 4 reproduction: weekly time series of sample services (Facebook,
// SnapChat, Netflix, Apple Store) with smoothed z-score peak detection
// (lag = 2 h, threshold = 3, influence = 0.4), plus the Facebook
// signal/smoothed-band/peaks detail.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/temporal_analysis.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

namespace {

void show_service(const core::TrafficDataset& dataset,
                  const core::PeakReport& report, const std::string& name) {
  const auto idx = dataset.catalog().find(name);
  if (!idx) return;
  const auto& sp = report.services[*idx];
  const auto& series = dataset.national_series(*idx, workload::Direction::kDownlink);

  std::cout << util::rule("Fig. 4 — " + name + " (downlink, weekly)") << "\n";
  std::cout << util::ascii_chart(std::vector<double>(series.begin(), series.end()),
                                 8, 168);
  std::string peak_line(ts::kHoursPerWeek, ' ');
  for (const std::size_t front : sp.detection.rising_fronts) {
    if (front < peak_line.size()) peak_line[front] = '^';
  }
  std::cout << "   " << peak_line << "\n";
  std::cout << "   ";
  for (std::size_t d = 0; d < 7; ++d) {
    std::cout << util::pad_right(
        std::string(ts::day_name(static_cast<ts::Day>(d))), 24);
  }
  std::cout << "\n  peaks at: ";
  for (const auto t : sp.topical_times) {
    std::cout << ts::topical_time_name(t) << "; ";
  }
  std::cout << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, {"snapshot"});
  std::cout << util::rule("bench fig04_timeseries_peaks") << "\n";
  const core::TrafficDataset dataset = bench::build_dataset(args);
  const core::PeakReport report =
      core::analyze_peaks(dataset, workload::Direction::kDownlink);

  for (const char* name : {"Facebook", "SnapChat", "Netflix", "Apple store"}) {
    show_service(dataset, report, name);
  }

  // Right-hand detail of Fig. 4: the Facebook smoothed z-score operation.
  const auto fb = *dataset.catalog().find("Facebook");
  const auto& sp = report.services[fb];
  const auto& series = dataset.national_series(fb, workload::Direction::kDownlink);
  std::cout << util::rule("Fig. 4 (right) — smoothed z-score detail, Facebook")
            << "\n";
  util::TextTable table({"hour", "traffic", "smoothed", "band(+thr*sd)", "signal"});
  for (std::size_t h = 60; h < 72; ++h) {  // Monday noon window
    table.add_row({std::to_string(h), util::format_double(series[h], 0),
                   util::format_double(sp.detection.smoothed[h], 0),
                   util::format_double(
                       sp.detection.smoothed[h] + sp.detection.band[h], 0),
                   std::to_string(sp.detection.signal[h])});
  }
  table.render(std::cout);

  std::cout << "\n";
  bench::print_expectation(
      "detector parameters", "lag 2h, threshold 3, infl 0.4 (probe data)",
      "threshold 3; lag/influence re-tuned for hourly data (DESIGN.md)");
  std::size_t unmatched = 0;
  std::size_t fronts = 0;
  for (const auto& s : report.services) {
    unmatched += s.unmatched_fronts;
    fronts += s.detection.rising_fronts.size();
  }
  bench::print_expectation(
      "peaks outside the 7 topical times", "none",
      std::to_string(unmatched) + " of " + std::to_string(fronts));
  return 0;
}
