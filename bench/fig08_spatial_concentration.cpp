// Fig. 8 reproduction (Twitter): cumulative weekly traffic over ranked
// communes (left) and the CDF of per-subscriber traffic across communes
// (right). Paper results: the top 1% / 10% of communes generate over 50% /
// 90% of the traffic; per-subscriber volumes span ~1 KB to tens of MB.
#include <iostream>

#include "bench_common.hpp"
#include "core/spatial_analysis.hpp"
#include "stats/distribution.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, {"snapshot"});
  std::cout << util::rule("bench fig08_spatial_concentration") << "\n";
  const core::TrafficDataset dataset = bench::build_dataset(args);
  const auto twitter = dataset.catalog().find("Twitter");
  if (!twitter) return 1;

  for (const auto d :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    const core::ConcentrationReport report =
        core::analyze_concentration(dataset, *twitter, d);

    std::cout << util::rule(std::string("Fig. 8 (left) — Twitter, ") +
                            std::string(workload::direction_name(d)))
              << "\n";
    util::TextTable cum({"top communes", "share of traffic"});
    const std::size_t n = report.cumulative_share.size();
    for (const double frac : {0.001, 0.01, 0.05, 0.10, 0.25, 0.50, 1.0}) {
      const auto k = std::max<std::size_t>(
          1, static_cast<std::size_t>(frac * static_cast<double>(n)));
      cum.add_row({util::format_percent(frac, 1),
                   util::format_percent(report.cumulative_share[k - 1], 1)});
    }
    cum.render(std::cout);

    std::cout << "\n"
              << util::rule(std::string("Fig. 8 (right) — per-subscriber CDF, ") +
                            std::string(workload::direction_name(d)))
              << "\n";
    util::TextTable cdf({"quantile", "weekly bytes/user"});
    static constexpr std::array<const char*, 7> kLabels = {
        "1%", "10%", "25%", "50%", "75%", "90%", "99%"};
    for (std::size_t i = 0; i < kLabels.size(); ++i) {
      cdf.add_row({kLabels[i], util::format_bytes(report.per_user_quantiles[i])});
    }
    cdf.render(std::cout);

    std::cout << "\n";
    bench::print_expectation("top 1% communes share", "> 50%",
                             util::format_percent(report.top1_share, 1));
    bench::print_expectation("top 10% communes share", "> 90%",
                             util::format_percent(report.top10_share, 1));
    bench::print_expectation(
        "per-user span p1 -> p99", "~1 KB -> tens of MB",
        util::format_bytes(report.per_user_quantiles[0]) + " -> " +
            util::format_bytes(report.per_user_quantiles[6]));
    bench::print_expectation("Gini coefficient of commune volumes", "high",
                             util::format_double(report.gini, 3));
    std::cout << "\n";
  }
  return 0;
}
