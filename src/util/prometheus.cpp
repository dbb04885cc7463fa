#include "util/prometheus.hpp"

#include <array>
#include <cstdio>

namespace appscope::util {

namespace {

bool legal_name_byte(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

/// %.17g round-trips every double; integral values render without exponent
/// noise ("3" not "3.0000000000000000e+00" — %g trims).
std::string format_value(double v) {
  std::array<char, 40> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", v);
  return buf.data();
}

void render_header(std::string& out, const std::string& name,
                   std::string_view registry_name, std::string_view type) {
  out += "# HELP " + name + " appscope metric " +
         prometheus_escape_help(registry_name) + "\n";
  out += "# TYPE " + name + " ";
  out += type;
  out += "\n";
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name.front() >= '0' && name.front() <= '9') {
    out += '_';
  }
  for (const char c : name) out += legal_name_byte(c) ? c : '_';
  if (out.empty()) out += '_';
  return out;
}

std::string prometheus_escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string metrics_to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = prometheus_name(name);
    render_header(out, prom, name, "counter");
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = prometheus_name(name);
    render_header(out, prom, name, "gauge");
    out += prom + " " + format_value(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string prom = prometheus_name(name);
    render_header(out, prom, name, "histogram");
    // Power-of-two buckets are per-slot counts; Prometheus buckets are
    // cumulative. The registry's last bucket is clamped (no finite upper
    // bound), so it folds into the mandatory +Inf bucket.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b + 1 < kHistogramBuckets; ++b) {
      cumulative += h.buckets[b];
      // Empty leading/trailing buckets are skipped to keep the exposition
      // compact, but once a bucket has been rendered every later one must
      // be too (cumulative counts may never appear to decrease) — so only
      // all-zero prefixes are elided.
      if (cumulative == 0 && h.buckets[b] == 0) continue;
      out += prom + "_bucket{le=\"" +
             format_value(histogram_bucket_upper_bound(b)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += prom + "_sum " + format_value(h.sum) + "\n";
    out += prom + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

}  // namespace appscope::util
