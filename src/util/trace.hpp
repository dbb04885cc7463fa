// appscope/util/trace.hpp
//
// Structured span tracing for the pipeline. Every ScopedSpan gets a
// process-unique span_id and records its parent_id (the span that was
// active on the thread — or the submitting thread, for util::ThreadPool
// tasks — when it opened), so the recorded events form a DAG that survives
// work-stealing across the pool. Recording stays lock-free on the hot path
// via the per-thread shards of the process-wide TraceRecorder.
//
// Exports:
//   * util/metrics.hpp embeds the span list in metrics.json ("spans");
//   * trace_to_chrome_json / write_trace_json emit the Chrome trace-event
//     format (schema appscope.trace/1), loadable in chrome://tracing and
//     Perfetto; enable_trace_export wires it to --trace=PATH /
//     APPSCOPE_TRACE on the report and bench binaries;
//   * util/trace_analysis.hpp aggregates spans per name and computes the
//     critical path of a run from the span DAG.
//
// Same gating contract as the metrics registry: spans record only while
// MetricsRegistry::enabled() is true, recording never feeds back into any
// analysis result, and the disabled path allocates nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace appscope::util {

class Json;

struct TraceEvent {
  std::string name;
  /// Process-unique span id (never 0 for a recorded span).
  std::uint64_t span_id = 0;
  /// Span that was active when this one opened; 0 for a root span. For a
  /// ThreadPool task this is a span on the *submitting* thread.
  std::uint64_t parent_id = 0;
  /// Recorder-assigned dense thread index (0 = first recording thread).
  std::uint32_t thread = 0;
  /// Nesting depth in the span DAG (0 = root); crosses thread boundaries.
  std::uint32_t depth = 0;
  /// Start offset since the recorder's epoch, and span length.
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

/// The calling thread's position in the span DAG: the innermost open span
/// and the number of open ancestors. Capture it where work is submitted and
/// restore it (SpanContextScope) on the thread that executes the work, so
/// spans opened there parent to the submitting span.
struct SpanContext {
  std::uint64_t span_id = 0;
  std::uint32_t depth = 0;
};

/// The calling thread's current span context ({0, 0} outside any span).
SpanContext current_span_context() noexcept;

/// RAII: installs a captured span context as the calling thread's current
/// one and restores the previous context on destruction. Used by
/// util::ThreadPool workers so task spans parent to the submitting span.
class SpanContextScope {
 public:
  explicit SpanContextScope(SpanContext ctx) noexcept;
  ~SpanContextScope();
  SpanContextScope(const SpanContextScope&) = delete;
  SpanContextScope& operator=(const SpanContextScope&) = delete;

 private:
  SpanContext saved_;
};

class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Monotonic nanoseconds since this recorder was constructed.
  std::uint64_t now_ns() const noexcept;

  /// Appends one finished span to the calling thread's buffer. Buffers are
  /// capped at kMaxEventsPerThread; overflow increments the dropped count
  /// instead of recording (exported as the trace.dropped_events counter,
  /// with a one-time stderr warning when a cap is first hit).
  void record(const TraceEvent& event);

  /// All recorded spans, merged and sorted by (start_ns, thread, span_id).
  std::vector<TraceEvent> snapshot() const;
  /// Spans discarded due to the per-thread cap, summed over threads.
  std::uint64_t dropped_events() const;
  void reset();

  static TraceRecorder& global();

  static constexpr std::size_t kMaxEventsPerThread = 1 << 16;

 private:
  friend class ScopedSpan;

  /// A span as a shard stores it. The name points into the process-wide
  /// table of interned span names (trace.cpp), so recording a span allocates
  /// no string: per-span name strings, interleaved with the large
  /// short-lived buffers of the stages they time, kept glibc from reusing
  /// those buffers' memory, and a traced process grew with every stage run.
  struct Record {
    const std::string* name = nullptr;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    std::uint32_t depth = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t duration_ns = 0;
  };
  void append(const Record& record);

  struct Shard;
  Shard& local_shard();

  const std::uint64_t id_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// RAII span: construction assigns the span id and stamps the start,
/// destruction records the event into TraceRecorder::global(). Inert when
/// metrics are disabled at construction time — the disabled path performs
/// no allocation and stamps no clocks (BM_ScopedSpanDisabled tracks it at
/// ~1 ns). Spans nest; parent/depth come from the thread's SpanContext.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's process-unique id (0 when inert).
  std::uint64_t span_id() const noexcept { return span_id_; }

 private:
  bool active_;
  const std::string* name_ = nullptr;  // interned
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t start_ns_ = 0;
  SpanContext saved_;
};

// ---------------------------------------------------------------------------
// Chrome trace-event export (chrome://tracing, Perfetto).

/// Serializes spans into the Chrome trace-event document
///   {"schema": "appscope.trace/1", "displayTimeUnit": "ms",
///    "traceEvents": [{"ph": "X", "name", "ts", "dur", "pid", "tid",
///                     "args": {"span_id", "parent_id", "depth", ...}}, ...],
///    "dropped_events": N}
/// Timestamps are microseconds (fractional, from the recorder's ns clock).
/// Output is byte-stable for a given event list: keys sort via util::Json
/// and events sort by (start_ns, thread, span_id).
Json trace_to_chrome_json(const std::vector<TraceEvent>& events,
                          std::uint64_t dropped_events);

/// Snapshot the global recorder and write the Chrome trace document to
/// `path`. Throws InputError if the file cannot be written.
void write_trace_json(const std::string& path);

/// Resolves the trace output path: `flag_path` (from --trace=PATH) if
/// non-empty, else the APPSCOPE_TRACE environment variable, else "".
std::string trace_output_path(const std::string& flag_path = "");

/// If trace_output_path(flag_path) is non-empty: turns the metrics gate on
/// (spans record only while it is on) and registers an idempotent atexit
/// hook that writes the Chrome trace document there. Returns the resolved
/// path ("" means tracing stays off). The bench binaries and paper_report
/// call this so `--trace=trace.json` / APPSCOPE_TRACE=trace.json always
/// leave a loadable trace behind.
std::string enable_trace_export(const std::string& flag_path = "");

}  // namespace appscope::util
