#include "util/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <set>
#include <tuple>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace appscope::util {

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local cache of (recorder id -> shard). Ids are never reused, so a
/// stale entry for a destroyed recorder can never be matched (and is never
/// dereferenced).
struct ShardRef {
  std::uint64_t recorder_id;
  void* shard;
};
thread_local std::vector<ShardRef> t_trace_shards;

/// The thread's position in the span DAG (ScopedSpan and SpanContextScope
/// save/restore it in strict stack order per thread).
thread_local SpanContext t_span_ctx;

/// The one copy of `name` every span with that name points at. Span names
/// are a small fixed set (literals, plus a few built from section and stage
/// names), so the table stays small; each thread keeps the names it used in
/// a cache, so only a thread's first span of a name takes the lock.
const std::string* intern_span_name(std::string_view name) {
  thread_local std::vector<const std::string*> cache;
  for (const std::string* interned : cache) {
    if (*interned == name) return interned;
  }
  static std::mutex mutex;
  // Intentionally immortal, like the global recorder that points into it.
  static auto* names = new std::set<std::string, std::less<>>();
  const std::string* interned = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = names->find(name);
    if (it == names->end()) it = names->emplace(name).first;
    interned = &*it;
  }
  cache.push_back(interned);
  return interned;
}

/// One-time stderr warning when any per-thread buffer first overflows.
std::atomic<bool> g_drop_warned{false};

}  // namespace

SpanContext current_span_context() noexcept { return t_span_ctx; }

SpanContextScope::SpanContextScope(SpanContext ctx) noexcept
    : saved_(t_span_ctx) {
  t_span_ctx = ctx;
}

SpanContextScope::~SpanContextScope() { t_span_ctx = saved_; }

/// Cache-line aligned so concurrently-recording threads' shards never
/// share a line (the record fast path mutates events/dropped every span).
struct alignas(64) TraceRecorder::Shard {
  std::mutex mutex;  // guards events/dropped against concurrent snapshot
  std::uint32_t thread_index = 0;
  std::deque<Record> events;
  std::uint64_t dropped = 0;
};

TraceRecorder::TraceRecorder()
    : id_(next_recorder_id()), epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() = default;

std::uint64_t TraceRecorder::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceRecorder::Shard& TraceRecorder::local_shard() {
  for (const ShardRef& ref : t_trace_shards) {
    if (ref.recorder_id == id_) return *static_cast<Shard*>(ref.shard);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  shard->thread_index = static_cast<std::uint32_t>(shards_.size() - 1);
  t_trace_shards.push_back({id_, shard});
  return *shard;
}

void TraceRecorder::record(const TraceEvent& event) {
  append({intern_span_name(event.name), event.span_id, event.parent_id,
          event.depth, event.start_ns, event.duration_ns});
}

void TraceRecorder::append(const Record& record) {
  Shard& shard = local_shard();
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.events.size() >= kMaxEventsPerThread) {
    ++shard.dropped;
    if (!g_drop_warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "appscope: trace buffer cap (%zu events/thread) hit; "
                   "further spans are dropped and counted in "
                   "trace.dropped_events\n",
                   kMaxEventsPerThread);
    }
    return;
  }
  shard.events.push_back(record);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    for (const Record& r : shard->events) {
      TraceEvent event;
      event.name = *r.name;
      event.span_id = r.span_id;
      event.parent_id = r.parent_id;
      event.thread = shard->thread_index;
      event.depth = r.depth;
      event.start_ns = r.start_ns;
      event.duration_ns = r.duration_ns;
      out.push_back(std::move(event));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.start_ns, a.thread, a.span_id) <
                     std::tie(b.start_ns, b.thread, b.span_id);
            });
  return out;
}

std::uint64_t TraceRecorder::dropped_events() const {
  std::uint64_t total = 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    total += shard->dropped;
  }
  return total;
}

void TraceRecorder::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    shard->events.clear();
    shard->dropped = 0;
  }
}

TraceRecorder& TraceRecorder::global() {
  // Intentionally immortal: pool workers and atexit exporters may record or
  // scrape during process teardown.
  static auto* recorder = new TraceRecorder();
  return *recorder;
}

ScopedSpan::ScopedSpan(std::string_view name)
    : active_(MetricsRegistry::enabled()) {
  if (!active_) return;  // zero-allocation, no clock stamp
  name_ = intern_span_name(name);
  saved_ = t_span_ctx;
  span_id_ = next_span_id();
  parent_id_ = saved_.span_id;
  depth_ = saved_.depth;
  t_span_ctx = {span_id_, depth_ + 1};
  start_ns_ = TraceRecorder::global().now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::uint64_t end_ns = TraceRecorder::global().now_ns();
  t_span_ctx = saved_;
  TraceRecorder::global().append({name_, span_id_, parent_id_, depth_,
                                  start_ns_, end_ns - start_ns_});
}

// ---------------------------------------------------------------------------
// Chrome trace-event export

Json trace_to_chrome_json(const std::vector<TraceEvent>& events,
                          std::uint64_t dropped_events) {
  Json::Array trace_events;
  trace_events.reserve(events.size());
  for (const TraceEvent& event : events) {
    Json::Object args;
    args.emplace("span_id", Json(event.span_id));
    args.emplace("parent_id", Json(event.parent_id));
    args.emplace("depth", Json(static_cast<std::uint64_t>(event.depth)));
    Json::Object entry;
    entry.emplace("name", Json(event.name));
    entry.emplace("cat", Json("appscope"));
    entry.emplace("ph", Json("X"));
    entry.emplace("pid", Json(std::uint64_t{0}));
    entry.emplace("tid", Json(static_cast<std::uint64_t>(event.thread)));
    // Chrome timestamps are microseconds; keep nanosecond resolution via a
    // fractional part (dumps byte-stably through std::to_chars).
    entry.emplace("ts", Json(static_cast<double>(event.start_ns) / 1000.0));
    entry.emplace("dur", Json(static_cast<double>(event.duration_ns) / 1000.0));
    entry.emplace("args", Json(std::move(args)));
    trace_events.emplace_back(std::move(entry));
  }
  Json::Object doc;
  doc.emplace("schema", Json("appscope.trace/1"));
  doc.emplace("displayTimeUnit", Json("ms"));
  doc.emplace("traceEvents", Json(std::move(trace_events)));
  doc.emplace("dropped_events", Json(dropped_events));
  return Json(std::move(doc));
}

void write_trace_json(const std::string& path) {
  const TraceRecorder& recorder = TraceRecorder::global();
  const Json doc =
      trace_to_chrome_json(recorder.snapshot(), recorder.dropped_events());
  std::ofstream file(path);
  APPSCOPE_REQUIRE(file.good(),
                   "write_trace_json: cannot open for writing: " + path);
  file << doc.dump(2) << '\n';
  file.close();
  APPSCOPE_REQUIRE(file.good(), "write_trace_json: write failed: " + path);
}

std::string trace_output_path(const std::string& flag_path) {
  if (!flag_path.empty()) return flag_path;
  if (const char* env = std::getenv("APPSCOPE_TRACE")) {
    if (*env != '\0') return env;
  }
  return "";
}

namespace {
/// Path captured by enable_trace_export for its atexit hook. Writes happen
/// once at process exit; later enable calls may retarget the path.
std::string& trace_exit_path() {
  static auto* path = new std::string();
  return *path;
}
}  // namespace

std::string enable_trace_export(const std::string& flag_path) {
  const std::string path = trace_output_path(flag_path);
  if (path.empty()) return path;
  MetricsRegistry::set_enabled(true);
  trace_exit_path() = path;
  static const bool registered = [] {
    std::atexit([] {
      const std::string& target = trace_exit_path();
      if (target.empty()) return;
      try {
        write_trace_json(target);
      } catch (...) {
        // Exporting observability data must never turn a successful run
        // into a failing exit.
      }
    });
    return true;
  }();
  (void)registered;
  return path;
}

}  // namespace appscope::util
