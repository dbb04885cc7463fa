// Fig. 5 reproduction: k-Shape clustering quality indices (Davies-Bouldin,
// modified DB*, Dunn, Silhouette) versus the cluster count k = 2..19, for
// downlink and uplink. Paper result: no k stands out; quality degrades as k
// grows — the services' temporal patterns resist grouping.
//
// Ablation (--baseline): repeats the sweep with Euclidean k-means to show
// the conclusion is not an artifact of the clustering algorithm.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/temporal_analysis.hpp"
#include "ts/hierarchical.hpp"
#include "ts/sbd.hpp"
#include "ts/series_batch.hpp"
#include "ts/znorm.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace appscope;

namespace {

// Ablation (--dendrogram): agglomerative clustering under SBD. A clean
// grouping would show a dominant merge-distance gap; the paper's "manual
// examination ... does not reveal any consistent grouping" corresponds to a
// flat merge profile.
void dendrogram_ablation(const core::TrafficDataset& dataset,
                         workload::Direction d) {
  std::vector<std::vector<double>> series;
  for (std::size_t s = 0; s < dataset.service_count(); ++s) {
    series.push_back(ts::znormalize(
        std::span<const double>(dataset.national_series(s, d))));
  }
  // Spectrum-cached pairwise matrix feeds the dendrogram directly — no
  // per-pair distance functor re-running the transforms.
  const ts::SeriesBatch batch(series);
  const ts::Dendrogram tree = ts::hierarchical_cluster(
      ts::sbd_distance_matrix(batch), ts::Linkage::kAverage);

  std::cout << util::rule(std::string("ablation — SBD dendrogram, ") +
                          std::string(workload::direction_name(d)))
            << "\n";
  util::TextTable table({"merge #", "distance", "bar"});
  const double max_d = tree.merges.back().distance;
  for (std::size_t i = 0; i < tree.merges.size(); ++i) {
    table.add_row({std::to_string(i + 1),
                   util::format_double(tree.merges[i].distance, 3),
                   util::ascii_bar(tree.merges[i].distance, max_d, 30)});
  }
  table.render(std::cout);
  const auto [gap, index] = tree.largest_merge_gap();
  std::cout << "  largest merge gap: " << util::format_double(gap, 3)
            << " after merge " << index + 1 << " ("
            << util::format_percent(gap / max_d, 0)
            << " of the final merge distance — a clean grouping would show a "
               "dominant gap)\n\n";
}

void run_direction(const core::TrafficDataset& dataset, workload::Direction d,
                   bool baseline) {
  core::ClusterSweepOptions opts;
  opts.k_min = 2;
  opts.k_max = 19;
  opts.include_kmeans_baseline = baseline;
  const core::ClusterSweepReport report = core::cluster_sweep(dataset, d, opts);

  std::cout << util::rule(std::string("Fig. 5 — clustering quality, ") +
                          std::string(workload::direction_name(d)))
            << "\n";
  std::vector<std::string> header{"k", "DB", "DB*", "Dunn", "Silhouette"};
  if (baseline) {
    header.insert(header.end(), {"kmeans DB", "kmeans Sil"});
  }
  util::TextTable table(header);
  for (const auto& row : report.rows) {
    std::vector<std::string> cells{
        std::to_string(row.k), util::format_double(row.kshape.davies_bouldin, 3),
        util::format_double(row.kshape.davies_bouldin_star, 3),
        util::format_double(row.kshape.dunn, 3),
        util::format_double(row.kshape.silhouette, 3)};
    if (baseline && row.kmeans) {
      cells.push_back(util::format_double(row.kmeans->davies_bouldin, 3));
      cells.push_back(util::format_double(row.kmeans->silhouette, 3));
    } else if (baseline) {
      cells.insert(cells.end(), {"-", "-"});
    }
    table.add_row(std::move(cells));
  }
  table.render(std::cout);

  double sil_first = report.rows.front().kshape.silhouette;
  double sil_best = sil_first;
  for (const auto& row : report.rows) {
    sil_best = std::max(sil_best, row.kshape.silhouette);
  }
  std::cout << "\n";
  bench::print_expectation(
      "clear winner k", "none (all indices degrade with k)",
      "best DB* at k=" + std::to_string(report.best_k_by_db_star()) +
          ", best Sil at k=" + std::to_string(report.best_k_by_silhouette()) +
          " (max Sil=" + util::format_double(sil_best, 2) + ")");
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_args(argc, argv, {"snapshot"}, {"baseline", "dendrogram"});
  std::cout << util::rule("bench fig05_clustering_quality") << "\n";
  const bool baseline = args.flags.has("baseline");
  const core::TrafficDataset dataset = bench::build_dataset(args);
  run_direction(dataset, workload::Direction::kDownlink, baseline);
  run_direction(dataset, workload::Direction::kUplink, baseline);
  if (args.flags.has("dendrogram")) {
    dendrogram_ablation(dataset, workload::Direction::kDownlink);
  }
  return 0;
}
