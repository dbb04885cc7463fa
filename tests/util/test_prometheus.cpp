#include "util/prometheus.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/metrics.hpp"

namespace appscope::util {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(prometheus_name("net.ingested"), "net_ingested");
  EXPECT_EQ(prometheus_name("serve.shard.0.events"), "serve_shard_0_events");
  EXPECT_EQ(prometheus_name("ok_name:sub"), "ok_name:sub");
  EXPECT_EQ(prometheus_name("weird metric-name!"), "weird_metric_name_");
  // A leading digit is illegal in the exposition grammar.
  EXPECT_EQ(prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(prometheus_name(""), "_");
}

TEST(Prometheus, HelpAndLabelEscaping) {
  EXPECT_EQ(prometheus_escape_help("a\\b\nc"), "a\\\\b\\nc");
  // '"' is legal in HELP text and stays unescaped.
  EXPECT_EQ(prometheus_escape_help("\"quoted\""), "\"quoted\"");
}

TEST(Prometheus, GoldenCountersAndGauges) {
  MetricsSnapshot snapshot;
  snapshot.counters["net.ingested"] = 12345;
  snapshot.counters["serve.epochs.sealed"] = 7;
  snapshot.gauges["serve.zipf.exponent"] = 1.25;
  const std::string expected =
      "# HELP net_ingested appscope metric net.ingested\n"
      "# TYPE net_ingested counter\n"
      "net_ingested 12345\n"
      "# HELP serve_epochs_sealed appscope metric serve.epochs.sealed\n"
      "# TYPE serve_epochs_sealed counter\n"
      "serve_epochs_sealed 7\n"
      "# HELP serve_zipf_exponent appscope metric serve.zipf.exponent\n"
      "# TYPE serve_zipf_exponent gauge\n"
      "serve_zipf_exponent 1.25\n";
  EXPECT_EQ(metrics_to_prometheus(snapshot), expected);
}

TEST(Prometheus, HistogramBucketsAreCumulativeWithInf) {
  MetricsRegistry reg;
  const bool was = MetricsRegistry::enabled();
  MetricsRegistry::set_enabled(true);
  reg.observe("lat", 0.5);
  reg.observe("lat", 0.5);
  reg.observe("lat", 3.0);
  MetricsRegistry::set_enabled(was);

  MetricsSnapshot snapshot;
  snapshot.histograms["lat"] = reg.snapshot().histograms.at("lat");
  const std::string text = metrics_to_prometheus(snapshot);

  // Header, then cumulative bucket lines, then +Inf / _sum / _count.
  const std::vector<std::string> lines = lines_of(text);
  ASSERT_GE(lines.size(), 5u);
  EXPECT_EQ(lines[0], "# HELP lat appscope metric lat");
  EXPECT_EQ(lines[1], "# TYPE lat histogram");

  // 0.5 lands in the [0.5, 1) bucket, 3.0 in [2, 4): the first rendered
  // bucket (all-zero prefix elided) is le="1" with 2 observations, and the
  // cumulative count reaches 3 at le="4".
  EXPECT_EQ(lines[2], "lat_bucket{le=\"1\"} 2");
  std::uint64_t prev_cumulative = 0;
  bool saw_le4 = false, saw_inf = false;
  for (const std::string& line : lines) {
    if (line.rfind("lat_bucket{le=\"+Inf\"}", 0) == 0) {
      EXPECT_EQ(line, "lat_bucket{le=\"+Inf\"} 3");
      saw_inf = true;
      continue;
    }
    if (line.rfind("lat_bucket{", 0) != 0) continue;
    const std::uint64_t cumulative =
        std::stoull(line.substr(line.find("} ") + 2));
    EXPECT_GE(cumulative, prev_cumulative) << line;
    prev_cumulative = cumulative;
    if (line.rfind("lat_bucket{le=\"4\"}", 0) == 0) {
      EXPECT_EQ(line, "lat_bucket{le=\"4\"} 3");
      saw_le4 = true;
    }
  }
  EXPECT_TRUE(saw_le4);
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(lines[lines.size() - 2], "lat_sum 4");
  EXPECT_EQ(lines[lines.size() - 1], "lat_count 3");
}

TEST(Prometheus, EmptyHistogramRendersOnlyInfAndTotals) {
  MetricsSnapshot snapshot;
  snapshot.histograms["h"];  // zero-count histogram
  const std::vector<std::string> lines =
      lines_of(metrics_to_prometheus(snapshot));
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[2], "h_bucket{le=\"+Inf\"} 0");
  EXPECT_EQ(lines[3], "h_sum 0");
  EXPECT_EQ(lines[4], "h_count 0");
}

TEST(Prometheus, BucketUpperBoundsArePowersOfTwo) {
  // Spot-check the mapping the exposition relies on: bucket i covers
  // [2^(i+min_exp), 2^(i+1+min_exp)).
  EXPECT_DOUBLE_EQ(histogram_bucket_upper_bound(19), 1.0);
  EXPECT_DOUBLE_EQ(histogram_bucket_upper_bound(20), 2.0);
  EXPECT_DOUBLE_EQ(histogram_bucket_upper_bound(21), 4.0);
  for (std::size_t b = 0; b + 1 < kHistogramBuckets; ++b) {
    EXPECT_LT(histogram_bucket_upper_bound(b),
              histogram_bucket_upper_bound(b + 1));
  }
}

}  // namespace
}  // namespace appscope::util
