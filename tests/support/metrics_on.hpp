// Scope guard for tests that read the global metrics registry or trace
// recorder.
#pragma once

#include <cstdint>
#include <string>

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

/// The global registry's counter `name`, 0 when nothing has added to it.
inline std::uint64_t counter_value(const std::string& name) {
  const auto counters = util::MetricsRegistry::global().snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace appscope::test_support
