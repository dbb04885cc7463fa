// appscope/util/prometheus.hpp
//
// Prometheus text exposition (format version 0.0.4) of a MetricsSnapshot,
// rendered for the obs::AdminServer /metrics endpoint. No external
// dependency: the format is line-oriented text.
//
//   * metric names are sanitized into the Prometheus grammar
//     [a-zA-Z_:][a-zA-Z0-9_:]* — the registry's dotted names map '.' (and
//     every other illegal byte) to '_';
//   * counters and gauges render as one sample each, with a # HELP line
//     carrying the original (escaped) registry name and a # TYPE line;
//   * histograms expand the fixed power-of-two bucket layout
//     (util::histogram_bucket_upper_bound) into cumulative `le` buckets,
//     ending in the mandatory `+Inf` bucket plus `_sum` and `_count`.
//
// Output is byte-stable for a given snapshot: families render in the
// snapshot's map order (sorted by name) and doubles use round-trip %.17g.
#pragma once

#include <string>
#include <string_view>

#include "util/metrics.hpp"

namespace appscope::util {

/// Maps a registry metric name into the Prometheus name grammar: every byte
/// outside [a-zA-Z0-9_:] becomes '_', and a leading digit is prefixed with
/// '_'. Distinct registry names can collide after sanitization; the
/// exposition keeps them apart only by their HELP lines.
std::string prometheus_name(std::string_view name);

/// Escapes a HELP-line value: backslash and newline (the two characters the
/// exposition format requires escaping there).
std::string prometheus_escape_help(std::string_view text);

/// Renders the whole snapshot as one exposition document (counters, then
/// gauges, then histograms — each family preceded by # HELP and # TYPE).
std::string metrics_to_prometheus(const MetricsSnapshot& snapshot);

/// The Content-Type the 0.0.4 text format is served under.
inline constexpr std::string_view kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

}  // namespace appscope::util
