// appscope/region/report.hpp
//
// Markdown rendering of the multi-region comparison: the national-scale
// counterpart of core/report.hpp. Output is a deterministic pure function
// of the report structs — fingerprints are already canonically ordered and
// all numbers format through util::format_* — so the same campaign renders
// byte-identical markdown at any thread count or region input ordering
// (the golden test in tests/region/test_region.cpp holds this).
#pragma once

#include <iosfwd>
#include <string>

#include "region/compare.hpp"
#include "region/merge.hpp"

namespace appscope::region {

struct RegionReportOptions {
  std::string title = "appscope multi-region report";
  /// Cap on rendered divergence pairs / urban-rural rows (0 = no cap).
  std::size_t max_rows = 10;
};

/// Renders the comparison (plus optional merge stats; pass nullptr to omit
/// the national-view section) as Markdown to `out`.
void write_region_report(const RegionComparisonReport& comparison,
                         const MergeStats* merge, std::ostream& out,
                         const RegionReportOptions& options = {});

}  // namespace appscope::region
