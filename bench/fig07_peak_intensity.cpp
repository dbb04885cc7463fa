// Fig. 7 reproduction: peak-to-trough intensity of every service at each of
// the seven topical times (max/min ratio over the detected peak interval,
// as a percentage). Paper result: services peaking at the same time undergo
// very different activity variations — midday surges reach ~160%, morning
// commute ~120%, evening ~80%, the weekend rings stay below ~35%.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/temporal_analysis.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, {"snapshot"});
  std::cout << util::rule("bench fig07_peak_intensity") << "\n";
  const core::TrafficDataset dataset = bench::build_dataset(args);
  const core::PeakReport report =
      core::analyze_peaks(dataset, workload::Direction::kDownlink);

  for (const auto t : ts::all_topical_times()) {
    std::cout << util::rule(std::string("Fig. 7 — ") +
                            std::string(ts::topical_time_name(t)))
              << "\n";
    util::TextTable table({"service", "intensity", "bar"});
    double max_intensity = 0.0;
    for (const auto& sp : report.services) {
      const auto v = sp.intensities[static_cast<std::size_t>(t)];
      if (v) max_intensity = std::max(max_intensity, *v);
    }
    std::size_t with_peak = 0;
    for (const auto& sp : report.services) {
      const auto v = sp.intensities[static_cast<std::size_t>(t)];
      if (!v) {
        table.add_row({sp.name, "-", ""});
        continue;
      }
      ++with_peak;
      table.add_row({sp.name, util::format_percent(*v, 0),
                     util::ascii_bar(*v, max_intensity, 24)});
    }
    table.render(std::cout);
    std::cout << "  services with a peak here: " << with_peak
              << "; max intensity: " << util::format_percent(max_intensity, 0)
              << "\n\n";
  }

  // Cross-topical summary against the paper's envelopes.
  auto max_at = [&report](ts::TopicalTime t) {
    double best = 0.0;
    for (const auto& sp : report.services) {
      const auto v = sp.intensities[static_cast<std::size_t>(t)];
      if (v) best = std::max(best, *v);
    }
    return best;
  };
  bench::print_expectation("midday max intensity", "~160%",
                           util::format_percent(max_at(ts::TopicalTime::kMidday), 0));
  bench::print_expectation(
      "morning commute max intensity", "~120%",
      util::format_percent(max_at(ts::TopicalTime::kMorningCommute), 0));
  bench::print_expectation("evening max intensity", "~80%",
                           util::format_percent(max_at(ts::TopicalTime::kEvening), 0));
  bench::print_expectation(
      "weekend midday max intensity", "<= ~30%",
      util::format_percent(max_at(ts::TopicalTime::kWeekendMidday), 0));
  return 0;
}
