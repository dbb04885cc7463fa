// Fig. 6 reproduction: the activity-peak-time wheel — which of the seven
// topical times each of the 20 services peaks at. Paper result: peaks only
// occur at seven specific moments, with very diverse per-service patterns,
// even within a category.
//
// Ablation (--sweep): sensitivity of the detected topical-time sets to the
// smoothed z-score parameters around the paper's (lag 2h, thr 3, infl 0.4).
#include <algorithm>
#include <set>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/category_analysis.hpp"
#include "core/temporal_analysis.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

namespace {

void print_wheel(const core::TrafficDataset& dataset,
                 const core::PeakReport& report) {
  std::cout << util::rule("Fig. 6 — activity peak times of mobile services")
            << "\n";
  std::vector<std::string> header{"service", "category"};
  for (const auto t : ts::all_topical_times()) {
    header.emplace_back(ts::topical_time_name(t).substr(0, 12));
  }
  util::TextTable table(header);
  for (const auto& sp : report.services) {
    std::vector<std::string> row{
        sp.name, std::string(workload::category_name(
                     dataset.catalog()[sp.service].category))};
    for (const auto t : ts::all_topical_times()) {
      const bool peaked = std::find(sp.topical_times.begin(),
                                    sp.topical_times.end(),
                                    t) != sp.topical_times.end();
      row.emplace_back(peaked ? "X" : ".");
    }
    table.add_row(std::move(row));
  }
  table.render(std::cout);

  std::set<std::vector<ts::TopicalTime>> signatures;
  std::size_t midday = 0;
  for (const auto& sp : report.services) {
    signatures.insert(sp.topical_times);
    if (std::find(sp.topical_times.begin(), sp.topical_times.end(),
                  ts::TopicalTime::kMidday) != sp.topical_times.end()) {
      ++midday;
    }
  }
  std::cout << "\n";
  bench::print_expectation("distinct topical peak moments", "exactly 7",
                           std::to_string(report.distinct_topical_times()));
  bench::print_expectation("per-service pattern diversity",
                           "very diverse, even within a category",
                           std::to_string(signatures.size()) +
                               " distinct signatures across 20 services");
  bench::print_expectation("services peaking at working-day midday",
                           "almost all", std::to_string(midday) + " / 20");
}

void parameter_sweep(const core::TrafficDataset& dataset) {
  std::cout << "\n" << util::rule("ablation — z-score parameter sensitivity")
            << "\n";
  util::TextTable table(
      {"lag", "threshold", "influence", "topical times", "unmatched fronts"});
  for (const std::size_t lag : {2u, 3u, 4u}) {
    for (const double thr : {2.5, 3.0, 3.5}) {
      for (const double infl : {0.2, 0.4, 0.6}) {
        const core::PeakReport r = core::analyze_peaks(
            dataset, workload::Direction::kDownlink,
            {.lag = lag, .threshold = thr, .influence = infl});
        std::size_t unmatched = 0;
        for (const auto& sp : r.services) unmatched += sp.unmatched_fronts;
        table.add_row({std::to_string(lag), util::format_double(thr, 1),
                       util::format_double(infl, 1),
                       std::to_string(r.distinct_topical_times()),
                       std::to_string(unmatched)});
      }
    }
  }
  table.render(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_args(argc, argv, {"snapshot"}, {"sweep"});
  std::cout << util::rule("bench fig06_peak_times") << "\n";
  const core::TrafficDataset dataset = bench::build_dataset(args);
  const core::PeakReport report =
      core::analyze_peaks(dataset, workload::Direction::kDownlink);
  print_wheel(dataset, report);

  // The paper's argument against category-level studies: members of a same
  // category still have clearly distinct dynamics.
  std::cout << "\n" << util::rule("within-category heterogeneity") << "\n";
  const core::CategoryReport categories = core::analyze_category_heterogeneity(
      dataset, workload::Direction::kDownlink);
  util::TextTable cat_table({"category", "members", "mean SBD", "max SBD",
                             "member-vs-aggregate r2", "signatures"});
  for (const auto& c : categories.categories) {
    cat_table.add_row({c.name, std::to_string(c.members.size()),
                       util::format_double(c.mean_pairwise_sbd, 3),
                       util::format_double(c.max_pairwise_sbd, 3),
                       util::format_double(c.mean_member_aggregate_r2, 2),
                       std::to_string(c.distinct_signatures)});
  }
  cat_table.render(std::cout);
  bench::print_expectation(
      "same-category services share one temporal shape", "no (Sec. 4)",
      "mean within-category SBD " +
          util::format_double(categories.overall_mean_sbd(), 3));

  if (args.flags.has("sweep")) parameter_sweep(dataset);
  return 0;
}
