#include "query/engine.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "la/simd.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace appscope::query {

namespace {

/// Rows per parallel chunk. Fixed (never derived from the thread count) so
/// the chunk-partial addition tree is identical at every pool size.
constexpr std::size_t kRowChunk = 8;

/// Sorts group aggregates for kTopK: value descending, smaller key wins a
/// tie, keep k.
void keep_top_k(std::vector<GroupValue>& groups, std::uint32_t k) {
  std::sort(groups.begin(), groups.end(),
            [](const GroupValue& a, const GroupValue& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.key < b.key;
            });
  if (groups.size() > k) groups.resize(k);
}

}  // namespace

Engine::Engine(Options options) : cache_(options.cache_capacity) {}

Result Engine::run(const SnapshotView& view, const Slice& slice) {
  QueryPlan plan;
  {
    util::ScopedSpan span("query.plan");
    plan = plan_slice(view.header(), slice);
  }
  const std::string key =
      std::to_string(view.fingerprint()) + "|" + canonical_query(plan.slice);
  if (auto hit = cache_.get(key)) return *hit;
  Result result = execute_plan(view, plan);
  cache_.put(key, result);
  return result;
}

Result execute_plan(const SnapshotView& view, const QueryPlan& plan) {
  util::StageTimer timer("query.scan");
  const la::simd::Kernels& k = la::simd::active();
  const Slice& q = plan.slice;
  const std::span<const double> col = view.column(plan.section);
  const std::size_t window = plan.col_end - plan.col_begin;
  const std::size_t nrows = plan.rows.size();
  const std::uint8_t* mask =
      plan.mask.empty() ? nullptr : plan.mask.data() + plan.col_begin;

  Result result;
  result.cells =
      static_cast<std::uint64_t>(nrows) * plan.selected_per_row;
  result.bytes_scanned = plan.bytes_touched;

  const auto row_ptr = [&](std::size_t i) {
    return col.data() + plan.rows[i].elem_offset + plan.col_begin;
  };

  const bool buffered =
      q.group_by == GroupBy::kHour || q.group_by == GroupBy::kCommune;
  if (!buffered) {
    // Per-row partials in parallel (independent slots), combined
    // sequentially in plan-row order.
    std::vector<double> parts(nrows, 0.0);
    const bool want_max = q.op == Op::kMax;
    util::parallel_for(0, nrows, kRowChunk,
                       [&](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) {
                           const double* row = row_ptr(i);
                           if (want_max) {
                             parts[i] = mask != nullptr
                                            ? k.masked_max(row, mask, window)
                                            : k.max_value(row, window);
                           } else {
                             parts[i] =
                                 mask != nullptr
                                     ? k.masked_sum_stripes(row, mask, window)
                                     : k.sum_stripes(row, window);
                           }
                         }
                       });
    if (want_max) {
      double best = -std::numeric_limits<double>::infinity();
      for (const double p : parts) {
        if (p > best) best = p;
      }
      result.value = nrows == 0 ? 0.0 : best;
    } else {
      double total = 0.0;
      for (const double p : parts) total += p;
      result.value = q.op == Op::kMean && result.cells != 0
                         ? total / static_cast<double>(result.cells)
                         : total;
    }
    if (q.group_by == GroupBy::kService) {
      // Rows are sorted by (service, class): fold consecutive runs.
      for (std::size_t i = 0; i < nrows;) {
        const std::uint32_t svc = plan.rows[i].service;
        std::size_t run = 0;
        double agg = q.op == Op::kMax
                         ? -std::numeric_limits<double>::infinity()
                         : 0.0;
        for (; i < nrows && plan.rows[i].service == svc; ++i, ++run) {
          if (q.op == Op::kMax) {
            if (parts[i] > agg) agg = parts[i];
          } else {
            agg += parts[i];
          }
        }
        if (q.op == Op::kMean) {
          agg /= static_cast<double>(run * plan.selected_per_row);
        }
        result.groups.push_back({svc, agg});
      }
    }
  } else {
    // Buffered aggregation: each fixed row chunk sums into its own window
    // slot of one zeroed buffer; the slots are then added in chunk order.
    const std::size_t chunks = (nrows + kRowChunk - 1) / kRowChunk;
    std::vector<double> parts(chunks * window, 0.0);
    util::parallel_for(0, nrows, kRowChunk,
                       [&](std::size_t lo, std::size_t hi) {
                         double* part = parts.data() + lo / kRowChunk * window;
                         for (std::size_t i = lo; i < hi; ++i) {
                           k.accumulate(part, row_ptr(i), window);
                         }
                       });
    std::vector<double> acc(window, 0.0);
    for (std::size_t c = 0; c < chunks; ++c) {
      k.accumulate(acc.data(), parts.data() + c * window, window);
    }
    const double total = mask != nullptr
                             ? k.masked_sum_stripes(acc.data(), mask, window)
                             : k.sum_stripes(acc.data(), window);
    result.value = q.op == Op::kMean && result.cells != 0
                       ? total / static_cast<double>(result.cells)
                       : total;
    const double per_group_div =
        q.op == Op::kMean ? static_cast<double>(nrows) : 1.0;
    if (q.group_by == GroupBy::kHour) {
      result.groups.reserve(window);
      for (std::size_t j = 0; j < window; ++j) {
        result.groups.push_back(
            {static_cast<std::uint32_t>(plan.col_begin + j),
             q.op == Op::kMean ? acc[j] / per_group_div : acc[j]});
      }
    } else {
      for (std::size_t c = 0; c < window; ++c) {
        if (mask != nullptr && mask[c] == 0) continue;
        result.groups.push_back(
            {static_cast<std::uint32_t>(c),
             q.op == Op::kMean ? acc[c] / per_group_div : acc[c]});
      }
    }
  }

  if (q.op == Op::kTopK) keep_top_k(result.groups, q.k);

  timer.add_bytes(result.bytes_scanned);
  if (util::MetricsRegistry::enabled()) {
    auto& m = util::MetricsRegistry::global();
    m.add("query.executed");
    m.add("query.rows_scanned", nrows);
    m.add("query.bytes_scanned", result.bytes_scanned);
  }
  return result;
}

}  // namespace appscope::query
