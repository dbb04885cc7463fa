// appscope/util/mem_stats.hpp
//
// Process memory probe: the peak resident set size behind the metrics
// document's mem.peak_rss_bytes gauge and perfbench's peak_rss_mb. It only
// observes; it changes no allocation and no analysis result.
#pragma once

#include <cstdint>

namespace appscope::util {

/// Peak resident set size of the process in bytes (getrusage ru_maxrss;
/// 0 when the platform offers no probe).
std::uint64_t peak_rss_bytes() noexcept;

}  // namespace appscope::util
