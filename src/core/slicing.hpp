// appscope/core/slicing.hpp
//
// The paper's motivating network-management application (Sec. 1): dynamic
// orchestration of per-service network slices builds on the *temporal
// complementarity* of service demands. This module quantifies it:
//
//  - static provisioning reserves each slice's own weekly peak;
//  - dynamic provisioning reallocates hourly, so the network only needs the
//    peak of the hourly *total*;
//  - the gap between the two is the multiplexing gain, which exists exactly
//    because services peak at different topical times (Figs. 6-7).
//
// Both entry points — the in-memory TrafficDataset and the query-layer
// SnapshotView — run the same kernel-based row analysis (la::simd striped
// sums + order-independent max), so the two paths produce bitwise-identical
// reports at any thread count under either SIMD dispatch.
#pragma once

#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "la/matrix.hpp"
#include "query/snapshot_view.hpp"

namespace appscope::core {

struct SliceDemand {
  workload::ServiceIndex service = 0;
  std::string name;
  /// Peak hourly demand over the week (bytes/hour).
  double peak = 0.0;
  /// Mean hourly demand (bytes/hour).
  double mean = 0.0;
  /// Hour of the week at which the peak occurs.
  std::size_t peak_hour = 0;

  double peak_to_mean() const noexcept { return mean > 0.0 ? peak / mean : 0.0; }
};

struct SlicingReport {
  workload::Direction direction = workload::Direction::kDownlink;
  std::vector<SliceDemand> slices;
  /// Sum of per-slice peaks: capacity needed with static slices.
  double static_capacity = 0.0;
  /// Peak of the hourly total: capacity needed with hourly reallocation.
  double dynamic_capacity = 0.0;
  /// Hour of the network-wide peak.
  std::size_t busy_hour = 0;

  /// Fraction of capacity saved by dynamic reallocation, in [0, 1).
  double multiplexing_gain() const noexcept {
    return static_capacity > 0.0 ? 1.0 - dynamic_capacity / static_capacity
                                 : 0.0;
  }
};

/// Computes the slicing economics over the nationwide hourly series.
SlicingReport analyze_slicing(const TrafficDataset& dataset,
                              workload::Direction d);

/// Same analysis over a (lazily mapped) snapshot via the query layer —
/// touches only the national-series and catalog sections, and produces a
/// report bitwise identical to the dataset overload on the snapshot of the
/// same dataset.
SlicingReport analyze_slicing(const query::SnapshotView& view,
                              workload::Direction d);

/// Peak-hour co-occurrence over a snapshot's national series: entry
/// (i, j) = 1 if services i and j reach >= `threshold` of their own peak in
/// the same hour at least once. Sparse co-occurrence across services is the
/// complementarity that makes the multiplexing gain possible.
la::Matrix peak_cooccurrence(const query::SnapshotView& view,
                             workload::Direction d, double threshold = 0.9);

}  // namespace appscope::core
