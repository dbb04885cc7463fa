#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics_on.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace appscope::util {
namespace {

using test_support::MetricsOn;

TEST(Metrics, CountersAccumulate) {
  const MetricsOn guard;
  MetricsRegistry reg;
  reg.add("a");
  reg.add("a", 4);
  reg.add("b", 2);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 5u);
  EXPECT_EQ(snap.counters.at("b"), 2u);
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(Metrics, GaugeLastWriteWins) {
  const MetricsOn guard;
  MetricsRegistry reg;
  reg.gauge("g", 1.0);
  reg.gauge("g", 7.5);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("g"), 7.5);
  // Last write wins across threads too (the later stamp survives).
  std::thread([&reg] { reg.gauge("g", -2.0); }).join();
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("g"), -2.0);
}

TEST(Metrics, HistogramTracksCountSumMinMax) {
  const MetricsOn guard;
  MetricsRegistry reg;
  for (const double v : {0.5, 2.0, 0.25, 8.0}) reg.observe("h", v);
  const HistogramSnapshot h = reg.snapshot().histograms.at("h");
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 10.75);
  EXPECT_DOUBLE_EQ(h.min, 0.25);
  EXPECT_DOUBLE_EQ(h.max, 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 10.75 / 4.0);
  std::uint64_t bucketed = 0;
  for (const auto b : h.buckets) bucketed += b;
  EXPECT_EQ(bucketed, 4u);
}

TEST(Metrics, BucketIndexIsMonotone) {
  std::size_t prev = 0;
  for (const double v : {0.0, 1e-7, 1e-6, 1e-3, 0.5, 1.0, 64.0, 1e9}) {
    const std::size_t b = histogram_bucket(v);
    EXPECT_GE(b, prev) << v;
    EXPECT_LT(b, kHistogramBuckets) << v;
    prev = b;
  }
}

TEST(Metrics, MergesShardsAcrossPoolWorkers) {
  const MetricsOn guard;
  MetricsRegistry& reg = MetricsRegistry::global();
  const MetricsSnapshot before = reg.snapshot();
  const std::uint64_t base_count = [&before] {
    const auto it = before.counters.find("merge.count");
    return it == before.counters.end() ? std::uint64_t{0} : it->second;
  }();

  // Record from whatever threads the pool uses; every increment must
  // survive the shard merge no matter which worker made it.
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 500;
  pool.run(kTasks, [&reg](std::size_t i) {
    reg.add("merge.count");
    reg.observe("merge.hist", static_cast<double>(i % 8) + 1.0);
  });

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("merge.count"), base_count + kTasks);
  EXPECT_GE(snap.histograms.at("merge.hist").count, kTasks);
}

TEST(Metrics, DisabledInstrumentsAreInert) {
  const bool was = MetricsRegistry::enabled();
  MetricsRegistry::set_enabled(false);
  const std::size_t spans_before = TraceRecorder::global().snapshot().size();
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  {
    StageTimer timer("noop");
    EXPECT_FALSE(timer.active());
    timer.add_items(5);
    const ScopedSpan span("noop");
  }
  // Neither the timer nor the span recorded anything while the gate is off.
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  EXPECT_EQ(after.counters.count("stage.noop.calls"), 0u);
  EXPECT_EQ(after.counters.size(), before.counters.size());
  EXPECT_EQ(TraceRecorder::global().snapshot().size(), spans_before);
  MetricsRegistry::set_enabled(was);
}

TEST(Metrics, StageTimerRecordsWallItemsBytes) {
  const MetricsOn guard;
  {
    StageTimer timer("unit");
    EXPECT_TRUE(timer.active());
    timer.add_items(3);
    timer.add_bytes(1024);
  }
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("stage.unit.calls"), 1u);
  EXPECT_EQ(snap.counters.at("stage.unit.items"), 3u);
  EXPECT_EQ(snap.counters.at("stage.unit.bytes"), 1024u);
  const HistogramSnapshot h = snap.histograms.at("stage.unit.wall_seconds");
  EXPECT_EQ(h.count, 1u);
  EXPECT_GE(h.sum, 0.0);
  // The timer also records one trace span under the stage name.
  const std::vector<TraceEvent> spans = TraceRecorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "unit");
}

TEST(Metrics, StageTimerStopIsIdempotent) {
  const MetricsOn guard;
  StageTimer timer("once");
  timer.stop();
  // stop() closes the span while the timer is still alive: it is recorded,
  // and a span opened next is a root, not the timer span's child.
  std::vector<TraceEvent> spans = TraceRecorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "once");
  { const ScopedSpan after("after"); }
  timer.stop();
  spans = TraceRecorder::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "after");
  EXPECT_EQ(spans[1].parent_id, 0u);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("stage.once.calls"), 1u);
}

TEST(Metrics, ResetClearsValuesButKeepsRecording) {
  const MetricsOn guard;
  MetricsRegistry reg;
  reg.add("r", 9);
  reg.reset();
  EXPECT_TRUE(reg.snapshot().empty());
  reg.add("r", 2);  // cached fast-path cells stay usable after reset
  EXPECT_EQ(reg.snapshot().counters.at("r"), 2u);
}

TEST(Metrics, JsonExportRoundTrips) {
  const MetricsOn guard;
  MetricsRegistry reg;
  reg.add("jobs", 17);
  reg.gauge("load", 0.75);
  reg.observe("latency", 0.002);
  reg.observe("latency", 0.004);
  const MetricsSnapshot snap = reg.snapshot();

  const Json doc = metrics_to_json(snap);
  EXPECT_EQ(doc.at("schema").as_string(), "appscope.metrics/1");
  const Json back = Json::parse(doc.dump(2));
  ASSERT_EQ(back.at("counters").as_object().size(), snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(back.at("counters").at(name).as_int(),
              static_cast<std::int64_t>(value));
  }
  ASSERT_EQ(back.at("gauges").as_object().size(), snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_EQ(back.at("gauges").at(name).as_double(), value);
  }
  ASSERT_EQ(back.at("histograms").as_object().size(), snap.histograms.size());
  const Json& h = back.at("histograms").at("latency");
  const HistogramSnapshot& h0 = snap.histograms.at("latency");
  EXPECT_EQ(h.at("count").as_int(), static_cast<std::int64_t>(h0.count));
  EXPECT_DOUBLE_EQ(h.at("sum").as_double(), h0.sum);
  EXPECT_DOUBLE_EQ(h.at("min").as_double(), h0.min);
  EXPECT_DOUBLE_EQ(h.at("max").as_double(), h0.max);
  // The bucket map is sparse: exactly the non-empty buckets, by index.
  std::size_t non_empty = 0;
  for (std::size_t b = 0; b < h0.buckets.size(); ++b) {
    if (h0.buckets[b] == 0) continue;
    ++non_empty;
    EXPECT_EQ(h.at("buckets").at(std::to_string(b)).as_int(),
              static_cast<std::int64_t>(h0.buckets[b]));
  }
  EXPECT_EQ(h.at("buckets").as_object().size(), non_empty);
}

TEST(Metrics, WriteMetricsJsonProducesWellFormedFile) {
  const MetricsOn guard;
  MetricsRegistry::global().add("file.counter", 2);
  {
    const ScopedSpan span("file.span");
  }
  const std::string path = ::testing::TempDir() + "appscope_metrics_test.json";
  write_metrics_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  EXPECT_EQ(doc.at("schema").as_string(), "appscope.metrics/1");
  EXPECT_EQ(doc.at("counters").at("file.counter").as_int(), 2);
  ASSERT_TRUE(doc.at("spans").is_array());
  ASSERT_FALSE(doc.at("spans").as_array().empty());
  const Json& span = doc.at("spans").at(0);
  EXPECT_EQ(span.at("name").as_string(), "file.span");
  EXPECT_GE(span.at("duration_ns").as_int(), 0);
  EXPECT_GT(span.at("span_id").as_int(), 0);
  EXPECT_EQ(span.at("parent_id").as_int(), 0);  // root span
  // Trace health is a first-class counter: drops must be visible even (and
  // especially) when zero.
  EXPECT_EQ(doc.at("counters").at("trace.dropped_events").as_int(), 0);
  std::remove(path.c_str());
}

TEST(Metrics, ObserveClampsInvalidValues) {
  const MetricsOn guard;
  MetricsRegistry reg;
  reg.observe("h", std::numeric_limits<double>::quiet_NaN());
  reg.observe("h", -1.5);
  reg.observe("h", std::numeric_limits<double>::infinity());
  reg.observe("h", 2.0);
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSnapshot h = snap.histograms.at("h");
  // Invalid observations are clamped to 0.0 (the underflow bucket) instead
  // of poisoning sum/min/max, and each one is counted.
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 2.0);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 2.0);
  EXPECT_EQ(snap.counters.at("metrics.invalid_observations"), 3u);
}

TEST(Metrics, SnapshotIntoReusesDocument) {
  const MetricsOn guard;
  MetricsRegistry reg;
  reg.add("a", 3);
  MetricsSnapshot snap;
  reg.snapshot_into(snap);
  EXPECT_EQ(snap.counters.at("a"), 3u);
  reg.add("a", 2);
  reg.snapshot_into(snap);
  // Re-filling must overwrite, not accumulate, the previous contents.
  EXPECT_EQ(snap.counters.at("a"), 5u);
  EXPECT_EQ(snap.counters.size(), 1u);
}

TEST(Metrics, FlushBestEffortWritesMetricsJson) {
  const MetricsOn guard;
  MetricsRegistry::global().add("flush.test", 3);
  const std::string path = ::testing::TempDir() + "appscope_flush_test.json";
  ::setenv("APPSCOPE_METRICS_PATH", path.c_str(), 1);
  EXPECT_TRUE(flush_metrics_best_effort());
  ::unsetenv("APPSCOPE_METRICS_PATH");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  EXPECT_EQ(doc.at("counters").at("flush.test").as_int(), 3);
  std::remove(path.c_str());

  // Disabled gate: nothing to flush, nothing written.
  MetricsRegistry::set_enabled(false);
  EXPECT_FALSE(flush_metrics_best_effort());
  MetricsRegistry::set_enabled(true);
}

TEST(Metrics, HistogramQuantileResolvesBucketBound) {
  const MetricsOn guard;
  MetricsRegistry reg;
  for (int i = 0; i < 99; ++i) reg.observe("h", 0.5);
  reg.observe("h", 100.0);
  const HistogramSnapshot h = reg.snapshot().histograms.at("h");
  // p50 lands in 0.5's bucket: upper bound is a power of two >= 0.5.
  const double p50 = histogram_quantile(h, 0.50);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 1.0);
  // p999 resolves to the top sample via the tracked max.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.999), 100.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(HistogramSnapshot{}, 0.5), 0.0);
}

TEST(Trace, SpansNestAndRecordDepth) {
  const MetricsOn guard;
  {
    const ScopedSpan outer("outer");
    const ScopedSpan inner("inner");
  }
  const std::vector<TraceEvent> events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_GE(events[0].duration_ns, events[1].duration_ns);
}

}  // namespace
}  // namespace appscope::util
