// slicing_planner — the paper's motivating network-management use case
// (Sec. 1): orchestrating per-service network slices needs to know when and
// where each service's demand peaks. This example sizes a per-service slice
// from the appscope analyses:
//
//  - static sizing  : provision each slice for its own weekly peak;
//  - dynamic sizing : reallocate hourly, exploiting that different services
//                     peak at different topical times (Fig. 6).
//
// The "multiplexing gain" printed at the end is the capacity saved by
// dynamic reallocation — it exists precisely because the services' temporal
// patterns are heterogeneous.
//
// The slicing figures run on the query read path: the dataset is sealed to
// an "appscope.snapshot/1" file once, then analyzed through a lazily-mapped
// query::SnapshotView — only the national-series section is mapped and
// validated, not the whole file. Pass --snapshot=<path> to reuse (or seal)
// a snapshot at a fixed location across runs.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "core/dataset_io.hpp"
#include "core/slicing.hpp"
#include "core/temporal_analysis.hpp"
#include "query/snapshot_view.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

int main(int argc, char** argv) {
  std::string path;
  try {
    const util::CliArgs args(argc, argv, {"snapshot"});
    if (args.has("help")) {
      std::cout << args.help();
      return 0;
    }
    path = args.get_string("snapshot", "slicing_planner.snapshot");
  } catch (const util::InputError& e) {
    std::cerr << "slicing_planner: " << e.what() << "\n";
    return 1;
  }
  std::cout << util::rule("appscope example: network slicing planner") << "\n";

  const core::TrafficDataset dataset = core::load_or_generate_snapshot(
      synth::ScenarioConfig::test_scale(), path);

  // The slicing analyses below read through the lazily-mapped view; the
  // eagerly loaded dataset above is only needed for the peak-complementarity
  // section (and produces bitwise-identical slicing figures — see --check in
  // appscope_query).
  const query::SnapshotView view(path);

  const auto direction = workload::Direction::kDownlink;
  const core::SlicingReport plan = core::analyze_slicing(view, direction);

  util::TextTable table({"slice (service)", "peak demand", "mean demand",
                         "peak/mean", "peak hour"});
  for (const auto& slice : plan.slices) {
    const ts::WeekHour wh = ts::week_hour(slice.peak_hour);
    table.add_row({slice.name, util::format_bytes(slice.peak),
                   util::format_bytes(slice.mean),
                   util::format_double(slice.peak_to_mean(), 2),
                   std::string(ts::day_name(wh.day())) + " " +
                       std::to_string(wh.hour_of_day()) + "h"});
  }
  table.render(std::cout);

  std::cout << "\nstatic slicing capacity (sum of per-slice peaks): "
            << util::format_bytes(plan.static_capacity) << "/h\n";
  std::cout << "dynamic slicing capacity (peak of hourly total):   "
            << util::format_bytes(plan.dynamic_capacity) << "/h\n";
  std::cout << "multiplexing gain from temporal heterogeneity:     "
            << util::format_percent(plan.multiplexing_gain(), 1)
            << " capacity saved\n\n";

  // How many service pairs ever hit >=90% of their own peak simultaneously?
  const la::Matrix together = core::peak_cooccurrence(view, direction, 0.9);
  std::size_t apart = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < together.rows(); ++i) {
    for (std::size_t j = i + 1; j < together.cols(); ++j) {
      ++pairs;
      apart += together(i, j) == 0.0 ? 1 : 0;
    }
  }
  std::cout << "service pairs whose peaks never coincide (>=90% of own peak): "
            << apart << " / " << pairs << "\n\n";

  // Show the complementarity that produces the gain: which services peak at
  // which topical times.
  const core::PeakReport peaks = core::analyze_peaks(dataset, direction);
  std::cout << "services per topical time (peak complementarity):\n";
  for (const auto t : ts::all_topical_times()) {
    std::size_t count = 0;
    for (const auto& sp : peaks.services) {
      if (std::find(sp.topical_times.begin(), sp.topical_times.end(), t) !=
          sp.topical_times.end()) {
        ++count;
      }
    }
    std::cout << "  " << util::pad_right(std::string(ts::topical_time_name(t)), 22)
              << util::ascii_bar(static_cast<double>(count), 20.0, 20) << " "
              << count << "/20\n";
  }
  std::cout << "\nquery read path mapped " << view.mapped_bytes() << " of "
            << view.file_bytes() << " snapshot bytes\n";
  return 0;
}
