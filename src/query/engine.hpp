// appscope/query/engine.hpp
//
// Executes Slices against a SnapshotView: plan (predicate pushdown, header
// only) -> cache probe -> parallel SIMD scan of exactly the planned bytes.
//
// Determinism contract: a result is bitwise identical across SIMD
// dispatches and thread counts.
//   - Row partials use the striped-reduction kernels (sum_stripes /
//     masked_sum_stripes) or the order-independent max kernels, so each
//     partial is dispatch-invariant.
//   - Partials combine sequentially in plan-row order (ascending service,
//     class) regardless of which pool thread produced them.
//   - Buffered aggregations (group-by hour / commune) accumulate in fixed
//     row chunks whose boundaries depend only on the row count, and merge
//     chunk partials strictly in chunk order — the same IEEE addition tree
//     at every thread count.
// Engines and views are safe to share across reader threads.
#pragma once

#include <cstddef>

#include "query/cache.hpp"
#include "query/plan.hpp"
#include "query/result.hpp"
#include "query/slice.hpp"
#include "query/snapshot_view.hpp"

namespace appscope::query {

class Engine {
 public:
  struct Options {
    /// Result-cache entries; 0 disables caching (benchmarks measuring the
    /// raw scan use 0).
    std::size_t cache_capacity = 128;
  };

  explicit Engine(Options options);

  /// Plans, probes the cache and (on a miss) scans. Throws
  /// util::InputError for unanswerable slices or a corrupt touched section.
  Result run(const SnapshotView& view, const Slice& slice);

  const ResultCache& cache() const noexcept { return cache_; }

 private:
  ResultCache cache_;
};

/// Pure plan execution: scans the planned section and aggregates. No cache,
/// no canonicalization — the deterministic core Engine::run wraps.
Result execute_plan(const SnapshotView& view, const QueryPlan& plan);

}  // namespace appscope::query
