#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace appscope::util {
namespace {

/// Flips the global metrics gate on for one test and restores it after
/// (spans record only while the gate is on), clearing the recorder on both
/// sides so tests compose with any APPSCOPE_METRICS environment setting.
class TracingOn {
 public:
  TracingOn() : was_(MetricsRegistry::enabled()) {
    MetricsRegistry::set_enabled(true);
    TraceRecorder::global().reset();
  }
  ~TracingOn() {
    TraceRecorder::global().reset();
    MetricsRegistry::set_enabled(was_);
  }

 private:
  bool was_;
};

/// Snapshot indexed by span id, for parent-chain assertions.
std::map<std::uint64_t, TraceEvent> by_id(const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, TraceEvent> out;
  for (const TraceEvent& e : events) out.emplace(e.span_id, e);
  return out;
}

TEST(Trace, SpanIdsAreUniqueAndParentsLink) {
  const TracingOn guard;
  {
    const ScopedSpan outer("outer");
    { const ScopedSpan first("first"); }
    { const ScopedSpan second("second"); }
  }
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 3u);
  const auto ids = by_id(events);
  ASSERT_EQ(ids.size(), 3u) << "span ids must be unique";

  std::uint64_t outer_id = 0;
  for (const TraceEvent& e : events) {
    EXPECT_NE(e.span_id, 0u);
    if (e.name == "outer") outer_id = e.span_id;
  }
  ASSERT_NE(outer_id, 0u);
  for (const TraceEvent& e : events) {
    if (e.name == "outer") {
      EXPECT_EQ(e.parent_id, 0u);
      EXPECT_EQ(e.depth, 0u);
    } else {
      EXPECT_EQ(e.parent_id, outer_id) << e.name;
      EXPECT_EQ(e.depth, 1u) << e.name;
    }
  }
}

TEST(Trace, SpanNamesAreKeptByContent) {
  // Recorded spans share one interned copy per name; a name built in a
  // buffer that is then reused for another name must keep its own text.
  const TracingOn guard;
  std::string name = "trace.test.first.built.name";
  { const ScopedSpan span(name); }
  name.replace(11, 5, "other");
  { const ScopedSpan span(name); }
  { const ScopedSpan span(std::string("trace.test.first.built.name")); }
  name.clear();
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "trace.test.first.built.name");
  EXPECT_EQ(events[1].name, "trace.test.other.built.name");
  EXPECT_EQ(events[2].name, "trace.test.first.built.name");
}

TEST(Trace, SiblingContextRestoresAfterEachSpan) {
  const TracingOn guard;
  const SpanContext before = current_span_context();
  EXPECT_EQ(before.span_id, 0u);
  {
    const ScopedSpan a("a");
    const SpanContext inside = current_span_context();
    EXPECT_EQ(inside.span_id, a.span_id());
    EXPECT_EQ(inside.depth, 1u);
  }
  const SpanContext after = current_span_context();
  EXPECT_EQ(after.span_id, 0u);
  EXPECT_EQ(after.depth, 0u);
}

TEST(Trace, ContextPropagatesAcrossParallelFor) {
  const TracingOn guard;
  // Force the pooled path even on single-core machines; restored below.
  ThreadPool::set_global_threads(4);
  {
    const ScopedSpan outer("outer");
    parallel_for(0, 8, 1, [](std::size_t, std::size_t) {
      const ScopedSpan unit("unit.shard");
      (void)unit;
    });
  }
  ThreadPool::set_global_threads(0);

  const auto events = TraceRecorder::global().snapshot();
  const auto ids = by_id(events);
  std::uint64_t outer_id = 0;
  std::size_t shards = 0, tasks = 0, batches = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "outer") outer_id = e.span_id;
  }
  ASSERT_NE(outer_id, 0u);
  for (const TraceEvent& e : events) {
    if (e.name == "unit.shard") {
      ++shards;
      // unit.shard -> pool.task -> pool.batch -> outer, even when the
      // shard ran on a worker thread the submitting span never touched.
      const auto task = ids.find(e.parent_id);
      ASSERT_NE(task, ids.end()) << "unit.shard parent must be recorded";
      EXPECT_EQ(task->second.name, "pool.task");
      const auto batch = ids.find(task->second.parent_id);
      ASSERT_NE(batch, ids.end());
      EXPECT_EQ(batch->second.name, "pool.batch");
      EXPECT_EQ(batch->second.parent_id, outer_id);
      EXPECT_EQ(e.depth, 3u);
    } else if (e.name == "pool.task") {
      ++tasks;
    } else if (e.name == "pool.batch") {
      ++batches;
      EXPECT_EQ(e.parent_id, outer_id);
      EXPECT_EQ(e.depth, 1u);
    }
  }
  EXPECT_EQ(shards, 8u);
  EXPECT_EQ(batches, 1u);
  EXPECT_GE(tasks, 1u);   // at least the submitting thread participated
  EXPECT_LE(tasks, 4u);   // one task span per participating thread
}

TEST(Trace, NestedPoolRunsInheritTheTaskContext) {
  const TracingOn guard;
  ThreadPool::set_global_threads(4);
  {
    const ScopedSpan outer("outer");
    parallel_for(0, 4, 1, [](std::size_t, std::size_t) {
      const ScopedSpan task_body("task.body");
      // A nested parallel_for from inside a pool task runs inline; the
      // spans its body opens must attach to task.body, not to some root.
      parallel_for(0, 2, 1, [](std::size_t, std::size_t) {
        const ScopedSpan inner("nested.unit");
        (void)inner;
      });
    });
  }
  ThreadPool::set_global_threads(0);

  const auto events = TraceRecorder::global().snapshot();
  const auto ids = by_id(events);
  std::size_t nested = 0;
  for (const TraceEvent& e : events) {
    if (e.name != "nested.unit") continue;
    ++nested;
    const auto parent = ids.find(e.parent_id);
    ASSERT_NE(parent, ids.end());
    EXPECT_EQ(parent->second.name, "task.body");
  }
  EXPECT_EQ(nested, 8u);
}

TEST(Trace, DisabledSpansRecordNothing) {
  const bool was = MetricsRegistry::enabled();
  MetricsRegistry::set_enabled(false);
  const std::size_t before = TraceRecorder::global().snapshot().size();
  {
    const ScopedSpan span("invisible");
    EXPECT_EQ(span.span_id(), 0u);
    EXPECT_EQ(current_span_context().span_id, 0u);
  }
  EXPECT_EQ(TraceRecorder::global().snapshot().size(), before);
  MetricsRegistry::set_enabled(was);
}

TEST(Trace, OverflowCountsDroppedEventsAndResetClears) {
  TraceRecorder recorder;  // local: the global cap state stays untouched
  TraceEvent event;
  event.name = "spam";
  for (std::size_t i = 0; i < TraceRecorder::kMaxEventsPerThread + 5; ++i) {
    event.span_id = i + 1;
    recorder.record(event);
  }
  EXPECT_EQ(recorder.snapshot().size(), TraceRecorder::kMaxEventsPerThread);
  EXPECT_EQ(recorder.dropped_events(), 5u);
  recorder.reset();
  EXPECT_TRUE(recorder.snapshot().empty());
  EXPECT_EQ(recorder.dropped_events(), 0u);
  // The shard stays usable after reset.
  event.span_id = 1;
  recorder.record(event);
  EXPECT_EQ(recorder.snapshot().size(), 1u);
}

TEST(Trace, SnapshotSortsByStartThreadAndSpanId) {
  TraceRecorder recorder;
  const std::uint64_t starts[] = {30, 10, 20, 10};
  const std::uint64_t spans[] = {4, 2, 3, 1};
  for (std::size_t i = 0; i < 4; ++i) {
    TraceEvent event;
    event.name = "e";
    event.span_id = spans[i];
    event.start_ns = starts[i];
    recorder.record(event);
  }
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].span_id, 1u);  // (10, tid, 1)
  EXPECT_EQ(events[1].span_id, 2u);  // (10, tid, 2)
  EXPECT_EQ(events[2].span_id, 3u);  // (20, ...)
  EXPECT_EQ(events[3].span_id, 4u);  // (30, ...)
}

TEST(Trace, ChromeExportGoldenBytes) {
  TraceEvent alpha;
  alpha.name = "alpha";
  alpha.span_id = 1;
  alpha.parent_id = 0;
  alpha.thread = 0;
  alpha.depth = 0;
  alpha.start_ns = 1500;     // 1.5 us
  alpha.duration_ns = 2500;  // 2.5 us
  TraceEvent beta;
  beta.name = "beta";
  beta.span_id = 2;
  beta.parent_id = 1;
  beta.thread = 1;
  beta.depth = 1;
  beta.start_ns = 2000;    // 2 us
  beta.duration_ns = 250;  // 0.25 us
  const Json doc = trace_to_chrome_json({alpha, beta}, 3);

  // Byte-for-byte golden: util::Json sorts keys and dumps doubles via
  // std::to_chars, so this string is stable across platforms and runs.
  const std::string expected = R"({
  "displayTimeUnit": "ms",
  "dropped_events": 3,
  "schema": "appscope.trace/1",
  "traceEvents": [
    {
      "args": {
        "depth": 0,
        "parent_id": 0,
        "span_id": 1
      },
      "cat": "appscope",
      "dur": 2.5,
      "name": "alpha",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 1.5
    },
    {
      "args": {
        "depth": 1,
        "parent_id": 1,
        "span_id": 2
      },
      "cat": "appscope",
      "dur": 0.25,
      "name": "beta",
      "ph": "X",
      "pid": 0,
      "tid": 1,
      "ts": 2
    }
  ]
})";
  EXPECT_EQ(doc.dump(2), expected);
  // And the export is a pure function of its input: dumping twice is
  // byte-identical (the CI job relies on this for artifact stability).
  EXPECT_EQ(doc.dump(2), trace_to_chrome_json({alpha, beta}, 3).dump(2));
}

TEST(Trace, TraceOutputPathPrefersFlagOverEnvironment) {
  EXPECT_EQ(trace_output_path("from_flag.json"), "from_flag.json");
  // Without a flag the result is the APPSCOPE_TRACE variable or "" — both
  // acceptable here; just exercise the call.
  const std::string fallback = trace_output_path("");
  if (const char* env = std::getenv("APPSCOPE_TRACE")) {
    EXPECT_EQ(fallback, std::string(env));
  } else {
    EXPECT_TRUE(fallback.empty());
  }
}

// "Parallel" prefix: included in the TSan CI preset's test filter. Each
// writer records a fixed budget (rather than free-running) so the total
// work is bounded and the test finishes under TSan on a single core; the
// main thread keeps reset/snapshot racing the records until all writers
// are done.
TEST(ParallelTrace, ResetRacesConcurrentRecording) {
  TraceRecorder recorder;
  std::atomic<int> running{4};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&recorder, &running] {
      TraceEvent event;
      event.name = "race";
      for (int i = 0; i < 5000; ++i) recorder.record(event);
      running.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  while (running.load(std::memory_order_relaxed) > 0) {
    recorder.reset();
    (void)recorder.snapshot();
    (void)recorder.dropped_events();
  }
  for (std::thread& w : writers) w.join();
  // Post-join the recorder is consistent: every surviving event intact.
  for (const TraceEvent& e : recorder.snapshot()) {
    EXPECT_EQ(e.name, "race");
  }
}

// Pool workers record task spans while the main thread snapshots: the shard
// merge must never tear an event. (TSan-checked via the Parallel filter.)
TEST(ParallelTrace, SnapshotRacesPoolRecording) {
  const TracingOn guard;
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const TraceEvent& e : TraceRecorder::global().snapshot()) {
        ASSERT_FALSE(e.name.empty());
      }
    }
  });
  for (int round = 0; round < 20; ++round) {
    pool.run(64, [](std::size_t) {
      const ScopedSpan span("parallel.unit");
      (void)span;
    });
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
}

}  // namespace
}  // namespace appscope::util
