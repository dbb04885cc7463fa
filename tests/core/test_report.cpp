#include "core/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace appscope::core {
namespace {

struct ReportFixture {
  TrafficDataset dataset;
  StudyReport report;

  ReportFixture()
      : dataset(TrafficDataset::generate(synth::ScenarioConfig::test_scale())),
        report([this] {
          StudyOptions options;
          options.cluster.k_min = 2;
          options.cluster.k_max = 4;  // keep the fixture cheap
          return run_study(dataset, options);
        }()) {}
};

const ReportFixture& fixture() {
  static const ReportFixture f;
  return f;
}

std::string markdown_report(const ReportOptions& options = {}) {
  std::ostringstream out;
  write_markdown_report(fixture().report, fixture().dataset, out, options);
  return out.str();
}

TEST(Report, ContainsEveryFigureSection) {
  const std::string md = markdown_report();
  for (const char* heading :
       {"## Fig. 2", "## Fig. 3", "## Fig. 5", "## Figs. 6/7", "## Fig. 8",
        "## Fig. 9", "## Fig. 10", "## Fig. 11"}) {
    EXPECT_NE(md.find(heading), std::string::npos) << heading;
  }
}

TEST(Report, PaperColumnsPresent) {
  const std::string md = markdown_report();
  EXPECT_NE(md.find("| metric | paper | measured |"), std::string::npos);
  EXPECT_NE(md.find("-1.69"), std::string::npos);
  EXPECT_NE(md.find("Netflix and iCloud"), std::string::npos);
}

TEST(Report, MapsToggle) {
  ReportOptions with;
  with.include_maps = true;
  ReportOptions without;
  without.include_maps = false;
  const std::string md_with =
      markdown_report(with);
  const std::string md_without =
      markdown_report(without);
  EXPECT_GT(md_with.size(), md_without.size());
  EXPECT_EQ(md_without.find("```"), std::string::npos);
}

TEST(Report, CustomTitleUsed) {
  ReportOptions options;
  options.title = "My Custom Title";
  const std::string md =
      markdown_report(options);
  EXPECT_EQ(md.rfind("# My Custom Title", 0), 0u);
}

TEST(Report, PeakWheelListsAllServices) {
  const std::string md = markdown_report();
  for (const auto& name : fixture().dataset.catalog().names()) {
    EXPECT_NE(md.find("| " + name + " |"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace appscope::core
