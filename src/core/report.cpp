#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>

#include "util/strings.hpp"

namespace appscope::core {

namespace {

using util::format_double;
using util::format_percent;

void paper_vs_measured(std::ostream& out, const std::string& metric,
                       const std::string& paper, const std::string& measured) {
  out << "| " << metric << " | " << paper << " | " << measured << " |\n";
}

void table_header(std::ostream& out) {
  out << "| metric | paper | measured |\n|---|---|---|\n";
}

void render_fig2(std::ostream& out, const StudyReport& r) {
  out << "## Fig. 2 — service ranking (Zipf)\n\n";
  table_header(out);
  const auto& dl = r.ranking[0];
  const auto& ul = r.ranking[1];
  // Negations built via append: gcc 12's -Wrestrict misfires on the inlined
  // operator+(const char*, std::string&&) temporary at -O2.
  std::string dl_exp = "-";
  dl_exp += format_double(dl.top_half_fit.exponent, 2);
  std::string ul_exp = "-";
  ul_exp += format_double(ul.top_half_fit.exponent, 2);
  paper_vs_measured(out, "downlink top-half Zipf exponent", "-1.69", dl_exp);
  paper_vs_measured(out, "uplink top-half Zipf exponent", "-1.55", ul_exp);
  paper_vs_measured(
      out, "rank-1 to rank-500 volume span", "~10 orders of magnitude",
      format_double(std::log10(dl.normalized_volumes.front() /
                               dl.normalized_volumes.back()),
                    1) +
          " orders (downlink)");
  paper_vs_measured(out, "bottom-half cutoff", "breaks below the Zipf head",
                    "actual/extrapolated at rank 500 = " +
                        format_double(dl.tail_cutoff_ratio, 4));
  out << "\n";
}

void render_fig3(std::ostream& out, const StudyReport& r) {
  out << "## Fig. 3 — top services by direction\n\n";
  table_header(out);
  const auto& dl = r.top_services[0];
  const auto& ul = r.top_services[1];
  paper_vs_measured(
      out, "video streaming share of downlink", "~46%",
      format_percent(dl.category_share(workload::Category::kVideoStreaming), 1));
  paper_vs_measured(out, "downlink ranking head", "YouTube, then iTunes",
                    dl.ranking[0].name + ", then " + dl.ranking[1].name);
  paper_vs_measured(out, "uplink top-3", "social networks and messaging",
                    ul.ranking[0].name + ", " + ul.ranking[1].name + ", " +
                        ul.ranking[2].name);
  out << "\n";
}

void render_fig5(std::ostream& out, const StudyReport& r) {
  out << "## Fig. 5 — clustering quality vs k\n\n";
  table_header(out);
  for (std::size_t dir = 0; dir < 2; ++dir) {
    const auto& sweep = r.clustering[dir];
    double sil_max = -1.0;
    for (const auto& row : sweep.rows) {
      sil_max = std::max(sil_max, row.kshape.silhouette);
    }
    const std::string name = dir == 0 ? "downlink" : "uplink";
    paper_vs_measured(out, name + " clear winner k",
                      "none — indices degrade with k",
                      "best DB* k=" + std::to_string(sweep.best_k_by_db_star()) +
                          ", max silhouette " + format_double(sil_max, 2));
  }
  out << "\n";
}

void render_fig6_7(std::ostream& out, const StudyReport& r) {
  out << "## Figs. 6/7 — peak times and intensities\n\n";
  table_header(out);
  std::set<std::vector<ts::TopicalTime>> signatures;
  std::size_t midday = 0;
  for (const auto& sp : r.peaks.services) {
    signatures.insert(sp.topical_times);
    for (const auto t : sp.topical_times) {
      if (t == ts::TopicalTime::kMidday) ++midday;
    }
  }
  paper_vs_measured(out, "distinct topical peak moments", "7",
                    std::to_string(r.peaks.distinct_topical_times()));
  paper_vs_measured(out, "distinct per-service signatures",
                    "very diverse, even within categories",
                    std::to_string(signatures.size()) + " / 20 services");
  paper_vs_measured(out, "services peaking at working midday", "almost all",
                    std::to_string(midday) + " / 20");

  auto max_at = [&r](ts::TopicalTime t) {
    double best = 0.0;
    for (const auto& sp : r.peaks.services) {
      const auto v = sp.intensities[static_cast<std::size_t>(t)];
      if (v) best = std::max(best, *v);
    }
    return best;
  };
  paper_vs_measured(out, "midday max intensity", "~160%",
                    format_percent(max_at(ts::TopicalTime::kMidday), 0));
  paper_vs_measured(out, "morning commute max intensity", "~120%",
                    format_percent(max_at(ts::TopicalTime::kMorningCommute), 0));
  paper_vs_measured(out, "evening max intensity", "~80%",
                    format_percent(max_at(ts::TopicalTime::kEvening), 0));
  out << "\n### Peak-time wheel\n\n| service |";
  for (const auto t : ts::all_topical_times()) {
    out << " " << ts::topical_time_name(t) << " |";
  }
  out << "\n|---|";
  for (std::size_t i = 0; i < ts::kTopicalTimeCount; ++i) out << "---|";
  out << "\n";
  for (const auto& sp : r.peaks.services) {
    out << "| " << sp.name << " |";
    for (const auto t : ts::all_topical_times()) {
      const bool on = std::find(sp.topical_times.begin(), sp.topical_times.end(),
                                t) != sp.topical_times.end();
      out << (on ? " x |" : "   |");
    }
    out << "\n";
  }
  out << "\n";
}

void render_fig8(std::ostream& out, const StudyReport& r) {
  out << "## Fig. 8 — spatial concentration (" << r.concentration.name
      << ")\n\n";
  table_header(out);
  paper_vs_measured(out, "top 1% communes' traffic share", "> 50%",
                    format_percent(r.concentration.top1_share, 1));
  paper_vs_measured(out, "top 10% communes' traffic share", "> 90%",
                    format_percent(r.concentration.top10_share, 1));
  paper_vs_measured(
      out, "per-subscriber weekly volume span", "few KB (median) to tens of MB",
      util::format_bytes(r.concentration.per_user_quantiles[3]) + " (median) to " +
          util::format_bytes(r.concentration.per_user_quantiles[6]) + " (p99)");
  out << "\n";
}

void render_fig9(std::ostream& out, const StudyReport& r,
                 const TrafficDataset& dataset, bool include_maps) {
  out << "## Fig. 9 — usage maps\n\n";
  table_header(out);
  paper_vs_measured(out, r.map_a.name + " communes with zero traffic",
                    "few (pervasive 3G suffices)",
                    format_percent(r.map_a.absent_commune_fraction, 1));
  paper_vs_measured(out, r.map_b.name + " communes with zero traffic",
                    "large rural regions (4G-gated, low adoption)",
                    format_percent(r.map_b.absent_commune_fraction, 1));
  paper_vs_measured(
      out, r.map_b.name + " urban/rural per-user contrast",
      "much stronger than typical services",
      format_double(r.map_b.urban_mean / (r.map_b.rural_mean + 1.0), 1) +
          "x vs " +
          format_double(r.map_a.urban_mean / (r.map_a.rural_mean + 1.0), 1) +
          "x");
  if (include_maps) {
    out << "\n### " << r.map_a.name << " per-subscriber downlink\n\n```\n"
        << r.map_a.usage_map.render_ascii() << "```\n";
    out << "\n### " << r.map_b.name << " per-subscriber downlink\n\n```\n"
        << r.map_b.usage_map.render_ascii() << "```\n";
    out << "\n### 3G/4G coverage\n\n```\n"
        << geo::map_coverage(dataset.territory()).render_ascii(false) << "```\n";
  }
  out << "\n";
}

void render_fig10(std::ostream& out, const StudyReport& r,
                  const TrafficDataset& dataset) {
  out << "## Fig. 10 — spatial correlation between services\n\n";
  table_header(out);
  paper_vs_measured(out, "mean pairwise r² (downlink)", "0.60",
                    format_double(r.correlation[0].mean_r2, 2));
  paper_vs_measured(out, "mean pairwise r² (uplink)", "0.53",
                    format_double(r.correlation[1].mean_r2, 2));
  std::string outliers;
  for (const auto s : r.correlation[0].outliers) {
    if (!outliers.empty()) outliers += ", ";
    outliers += dataset.catalog()[s].name;
  }
  paper_vs_measured(out, "low-correlation outliers", "Netflix and iCloud",
                    outliers);
  out << "\n";
}

void render_fig11(std::ostream& out, const StudyReport& r) {
  out << "## Fig. 11 — urbanization levels\n\n";
  table_header(out);
  const auto& u = r.urbanization;
  paper_vs_measured(out, "semi-urban per-user volume vs urban", "~1x",
                    format_double(u.mean_volume_ratio(geo::Urbanization::kSemiUrban), 2) + "x");
  paper_vs_measured(out, "rural per-user volume vs urban", "~0.5x",
                    format_double(u.mean_volume_ratio(geo::Urbanization::kRural), 2) + "x");
  paper_vs_measured(out, "TGV per-user volume vs urban", ">= 2x",
                    format_double(u.mean_volume_ratio(geo::Urbanization::kTgv), 2) + "x");
  paper_vs_measured(out, "temporal r² across urban/semi/rural", "high",
                    format_double(u.mean_temporal_r2(geo::Urbanization::kRural), 2));
  paper_vs_measured(out, "temporal r² of TGV users", "distinctly lower",
                    format_double(u.mean_temporal_r2(geo::Urbanization::kTgv), 2));
  double adult_tgv = 0.0;
  for (const auto& s : u.services) {
    if (s.name == "Adult") {
      adult_tgv = s.volume_ratio[static_cast<std::size_t>(geo::Urbanization::kTgv)];
    }
  }
  paper_vs_measured(out, "Adult on TGV", "inverted (depressed) trend",
                    format_double(adult_tgv, 2) + "x");
  out << "\n";
}

void render_extensions(std::ostream& out, const StudyReport& r) {
  out << "## Beyond the figures\n\n";

  out << "### Within-category heterogeneity (Sec. 4's key argument)\n\n"
      << "| category | members | mean SBD | member-vs-aggregate r² | "
         "signatures |\n|---|---|---|---|---|\n";
  for (const auto& c : r.categories.categories) {
    out << "| " << c.name << " | " << c.members.size() << " | "
        << format_double(c.mean_pairwise_sbd, 3) << " | "
        << format_double(c.mean_member_aggregate_r2, 2) << " | "
        << c.distinct_signatures << " |\n";
  }
  out << "\n";
  write_slicing_section(out, r.slicing);
  out << "\n";
}

}  // namespace

void write_slicing_section(std::ostream& out, const SlicingReport& slices) {
  out << "### Network-slicing economics (the Sec. 1 motivation)\n\n"
      << "- static per-slice capacity (sum of peaks): "
      << util::format_bytes(slices.static_capacity) << "/h\n"
      << "- dynamic hourly reallocation: "
      << util::format_bytes(slices.dynamic_capacity) << "/h\n"
      << "- multiplexing gain from temporal heterogeneity: "
      << format_percent(slices.multiplexing_gain(), 1) << "\n";
}

void write_markdown_report(const StudyReport& report,
                           const TrafficDataset& dataset, std::ostream& out,
                           const ReportOptions& options) {
  out << "# " << options.title << "\n\n";
  out << "Scenario: " << dataset.commune_count() << " communes, "
      << dataset.subscribers().total() << " subscribers, "
      << dataset.service_count() << " services, one synthetic week.\n\n";
  render_fig2(out, report);
  render_fig3(out, report);
  render_fig5(out, report);
  render_fig6_7(out, report);
  render_fig8(out, report);
  render_fig9(out, report, dataset, options.include_maps);
  render_fig10(out, report, dataset);
  render_fig11(out, report);
  render_extensions(out, report);
}

}  // namespace appscope::core
