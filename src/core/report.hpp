// appscope/core/report.hpp
//
// Markdown rendering of a StudyReport: one call turns the full study into a
// human-readable document with a paper-vs-measured table per figure. Used
// by the paper_report example and to regenerate EXPERIMENTS.md.
#pragma once

#include <iosfwd>
#include <string>

#include "core/study.hpp"

namespace appscope::core {

struct ReportOptions {
  /// Title of the generated document.
  std::string title = "appscope study report";
  /// Include the ASCII maps (Fig. 9); large but self-contained.
  bool include_maps = true;
};

/// Renders the study as Markdown to `out`.
void write_markdown_report(const StudyReport& report,
                           const TrafficDataset& dataset, std::ostream& out,
                           const ReportOptions& options = {});

/// Writes the network-slicing section: its heading, a blank line and three
/// bullets. The report and `appscope_query --slicing` both print it here.
void write_slicing_section(std::ostream& out, const SlicingReport& slices);

}  // namespace appscope::core
