// Scope guard for tests that read the global metrics registry or trace
// recorder.
#pragma once

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace appscope::test_support {

/// Flips the global metrics gate on for one scope, with the registry and the
/// trace recorder cleared on entry and on exit, and restores the previous
/// gate on exit — so tests compose with any APPSCOPE_METRICS environment
/// setting and leave no counters or spans behind, even when an assertion
/// throws.
class MetricsOn {
 public:
  MetricsOn() : was_(util::MetricsRegistry::enabled()) {
    util::MetricsRegistry::set_enabled(true);
    util::MetricsRegistry::global().reset();
    util::TraceRecorder::global().reset();
  }
  ~MetricsOn() {
    util::MetricsRegistry::global().reset();
    util::TraceRecorder::global().reset();
    util::MetricsRegistry::set_enabled(was_);
  }
  MetricsOn(const MetricsOn&) = delete;
  MetricsOn& operator=(const MetricsOn&) = delete;

 private:
  bool was_;
};

}  // namespace appscope::test_support
