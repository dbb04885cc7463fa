#include "region/report.hpp"

#include <ostream>

#include "util/strings.hpp"

namespace appscope::region {

namespace {

using util::format_bytes;
using util::format_double;
using util::format_percent;

void render_fingerprints(std::ostream& out,
                         const RegionComparisonReport& r) {
  out << "## Regional service-usage fingerprints\n\n";
  out << "| region | communes | subscribers | weekly volume | per-user | "
         "top service | mix entropy | geo diversity |\n";
  out << "|---|---|---|---|---|---|---|---|\n";
  for (const RegionFingerprint& fp : r.fingerprints) {
    out << "| " << fp.region << " | " << fp.communes << " | "
        << fp.subscribers << " | " << format_bytes(fp.weekly_bytes) << " | "
        << format_bytes(fp.per_user_weekly_bytes) << " | " << fp.top_service
        << " | " << format_double(fp.mix_entropy, 3) << " | "
        << format_double(fp.geographic_diversity, 4) << " |\n";
  }
  out << "\n";
}

void render_divergence(std::ostream& out, const RegionComparisonReport& r,
                       std::size_t max_rows) {
  out << "## Region divergence ranking\n\n";
  out << "Mean pairwise service-mix r-squared: "
      << format_double(r.mean_pairwise_mix_r2, 3) << "\n\n";
  out << "| rank | region pair | mix r-squared |\n|---|---|---|\n";
  std::size_t rows = r.divergence.size();
  if (max_rows > 0 && rows > max_rows) rows = max_rows;
  for (std::size_t i = 0; i < rows; ++i) {
    const RegionDivergence& pair = r.divergence[i];
    out << "| " << (i + 1) << " | " << pair.region_a << " vs "
        << pair.region_b << " | " << format_double(pair.mix_r2, 3) << " |\n";
  }
  if (rows < r.divergence.size()) {
    out << "\n(" << (r.divergence.size() - rows) << " more pairs omitted)\n";
  }
  out << "\n";
}

void render_urban_rural(std::ostream& out, const RegionComparisonReport& r,
                        std::size_t max_rows) {
  out << "## Urban vs rural divergence (national view)\n\n";
  out << "| rank | service | urban per-user | rural per-user | ratio |\n";
  out << "|---|---|---|---|---|\n";
  std::size_t rows = r.urban_rural.size();
  if (max_rows > 0 && rows > max_rows) rows = max_rows;
  for (std::size_t i = 0; i < rows; ++i) {
    const UrbanRuralGap& gap = r.urban_rural[i];
    out << "| " << (i + 1) << " | " << gap.service << " | "
        << format_bytes(gap.urban_per_user) << " | "
        << format_bytes(gap.rural_per_user) << " | "
        << format_double(gap.ratio, 2) << "x |\n";
  }
  out << "\n";
}

}  // namespace

void write_region_report(const RegionComparisonReport& comparison,
                         const MergeStats* merge, std::ostream& out,
                         const RegionReportOptions& options) {
  out << "# " << options.title << "\n\n";
  out << "Direction: "
      << workload::direction_name(comparison.direction) << ". Regions: "
      << comparison.fingerprints.size() << ".\n\n";

  if (merge != nullptr) {
    out << "## National view\n\n";
    out << "Merged " << merge->regions << " regions into "
        << merge->communes << " communes / " << merge->services
        << " services / " << merge->subscribers << " subscribers ("
        << format_bytes(static_cast<double>(merge->bytes))
        << " snapshot).\n\nCanonical region order:";
    for (const std::string& id : merge->region_ids) out << " " << id;
    out << "\n\n";
  }

  render_fingerprints(out, comparison);
  render_divergence(out, comparison, options.max_rows);
  render_urban_rural(out, comparison, options.max_rows);
}

}  // namespace appscope::region
