// Fig. 3 reproduction: the 20 selected services ranked on downlink and
// uplink traffic volume, with category shares. Paper results: video
// streaming ≈ 46% of downlink; social networks and messaging occupy the
// uplink top-3.
#include <iostream>

#include "bench_common.hpp"
#include "core/rank_analysis.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

namespace {

void run_direction(const core::TrafficDataset& dataset, workload::Direction d) {
  const core::TopServicesReport report = core::analyze_top_services(dataset, d);

  std::cout << util::rule(std::string("Fig. 3 — top services, ") +
                          std::string(workload::direction_name(d)))
            << "\n";
  util::TextTable table({"#", "service", "category", "share", "bar"});
  const double max_share = report.ranking.front().share;
  for (std::size_t i = 0; i < report.ranking.size(); ++i) {
    const auto& e = report.ranking[i];
    table.add_row({std::to_string(i + 1), e.name,
                   std::string(workload::category_name(e.category)),
                   util::format_percent(e.share, 1),
                   util::ascii_bar(e.share, max_share, 30)});
  }
  table.render(std::cout);

  std::cout << "\ncategory shares:\n";
  for (std::size_t c = 0; c < workload::kCategoryCount; ++c) {
    const double share = report.category_shares[c];
    if (share <= 0.0) continue;
    std::cout << "  "
              << util::pad_right(
                     std::string(workload::category_name(
                         static_cast<workload::Category>(c))),
                     18)
              << util::format_percent(share, 1) << "\n";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, {"snapshot"});
  std::cout << util::rule("bench fig03_top_services") << "\n";
  const core::TrafficDataset dataset = bench::build_dataset(args);

  run_direction(dataset, workload::Direction::kDownlink);
  run_direction(dataset, workload::Direction::kUplink);

  const auto dl =
      core::analyze_top_services(dataset, workload::Direction::kDownlink);
  const auto ul = core::analyze_top_services(dataset, workload::Direction::kUplink);
  bench::print_expectation(
      "video streaming share of downlink", "~46%",
      util::format_percent(
          dl.category_share(workload::Category::kVideoStreaming), 1));
  bench::print_expectation("downlink leader", "YouTube, iTunes at distance",
                           dl.ranking[0].name + ", " + dl.ranking[1].name);
  bench::print_expectation(
      "uplink top-3", "social networks & messaging",
      ul.ranking[0].name + ", " + ul.ranking[1].name + ", " + ul.ranking[2].name);
  const double ul_total = dataset.direction_total(workload::Direction::kUplink);
  const double total = ul_total + dataset.direction_total(workload::Direction::kDownlink);
  bench::print_expectation("uplink share of total load", "< 1/20",
                           util::format_percent(ul_total / total, 2));
  return 0;
}
