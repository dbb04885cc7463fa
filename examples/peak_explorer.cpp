// peak_explorer — interactive-style CLI around the smoothed z-score peak
// detector: pick a service and detector parameters, see its weekly series,
// detected peaks, topical-time mapping and intensities.
//
// Run:  ./peak_explorer                      (SnapChat, library defaults)
//       ./peak_explorer --service=Netflix
//       ./peak_explorer "--service=Apple store" --lag=3 --threshold=2.5 \
//           --influence=0.3
#include <cmath>
#include <iostream>

#include "core/dataset.hpp"
#include "ts/peaks.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

int main(int argc, char** argv) {
  std::string service_name;
  ts::ZScorePeakOptions opts;  // the library's hourly-series defaults
  try {
    const util::CliArgs args(argc, argv,
                             {"service", "lag", "threshold", "influence"});
    if (args.has("help")) {
      std::cout << args.help();
      return 0;
    }
    service_name = args.get_string("service", "SnapChat");
    // The detector needs a window shorter than the week it slides over.
    opts.lag = static_cast<std::size_t>(
        args.get_int("lag", static_cast<std::int64_t>(opts.lag), 1,
                     static_cast<std::int64_t>(ts::kHoursPerWeek) - 1));
    opts.threshold = args.get_nonnegative("threshold", opts.threshold);
    if (opts.threshold == 0.0) {
      throw util::InputError("--threshold=" + *args.value("threshold") +
                             ": expected a finite number > 0");
    }
    opts.influence = args.get_nonnegative("influence", opts.influence);
    if (opts.influence > 1.0) {
      throw util::InputError("--influence=" + *args.value("influence") +
                             ": expected a number in [0, 1]");
    }
  } catch (const util::InputError& e) {
    std::cerr << "peak_explorer: " << e.what() << "\n";
    return 1;
  }

  // The generated dataset's catalog is the paper's, so an unknown name is
  // rejected before any generation.
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const auto service = catalog.find(service_name);
  if (!service) {
    std::cerr << "peak_explorer: unknown --service='" << service_name
              << "'. Available:\n";
    for (const auto& name : catalog.names()) {
      std::cerr << "  " << name << "\n";
    }
    return 1;
  }

  std::cout << util::rule("appscope example: peak explorer — " + service_name)
            << "\n";
  const core::TrafficDataset dataset =
      core::TrafficDataset::generate(synth::ScenarioConfig::test_scale());

  const auto& series =
      dataset.national_series(*service, workload::Direction::kDownlink);
  const ts::PeakDetection det = ts::detect_peaks(series, opts);

  std::cout << "weekly downlink series (Sat -> Fri):\n";
  std::cout << util::ascii_chart(std::vector<double>(series.begin(), series.end()),
                                 10, 168);
  std::string marks(series.size(), ' ');
  for (const std::size_t f : det.rising_fronts) marks[f] = '^';
  std::cout << "   " << marks << "\n\n";

  util::TextTable table({"peak #", "rises at", "day", "hour", "topical time",
                         "intensity"});
  for (std::size_t i = 0; i < det.intervals.size(); ++i) {
    const auto& interval = det.intervals[i];
    const ts::WeekHour wh = ts::week_hour(interval.begin);
    const auto topical = ts::classify_topical(wh);
    table.add_row(
        {std::to_string(i + 1), std::to_string(interval.begin),
         std::string(ts::day_name(wh.day())), std::to_string(wh.hour_of_day()),
         topical ? std::string(ts::topical_time_name(*topical)) : "(none)",
         util::format_percent(ts::interval_intensity(series, interval), 0)});
  }
  table.render(std::cout);

  std::cout << "\ndetector: lag=" << opts.lag << "h threshold=" << opts.threshold
            << " influence=" << opts.influence << "\n";
  return 0;
}
