// appscope/query/plan.hpp
//
// Predicate pushdown: plan_slice() resolves a Slice against the snapshot
// *header only* — every predicate (hour range, service set, commune set,
// urbanization class, direction) becomes row element-offsets, a contiguous
// within-row window and an optional selection mask before any payload byte
// is touched. The executor then scans exactly plan.bytes_touched bytes of
// the one section the plan names; no other section is read or
// CRC-checked.
#pragma once

#include <cstdint>
#include <vector>

#include "io/format.hpp"
#include "query/slice.hpp"

namespace appscope::query {

/// One row the scan will read.
struct RowRef {
  /// Owning service id.
  std::uint32_t service = 0;
  /// Urbanization class for the urbanization source (0 otherwise).
  std::uint32_t cls = 0;
  /// Element offset of the row start inside the section column.
  std::size_t elem_offset = 0;
};

struct QueryPlan {
  /// The canonicalized slice this plan answers.
  Slice slice;
  /// The only section the scan touches.
  io::SectionId section = io::SectionId::kNationalSeries;
  /// Rows to scan, in ascending (service, class) order — the deterministic
  /// combine order of every aggregate.
  std::vector<RowRef> rows;
  /// Full row length in the column (hours, or communes).
  std::size_t row_len = 0;
  /// Within-row scan window [col_begin, col_end).
  std::size_t col_begin = 0;
  std::size_t col_end = 0;
  /// Selection mask over the window (commune sets); empty = whole window.
  std::vector<std::uint8_t> mask;
  /// Selected elements per row (mask popcount, or the window width).
  std::size_t selected_per_row = 0;
  /// Payload bytes the scan will read — the pushdown result.
  std::uint64_t bytes_touched = 0;
};

/// Resolves `slice` against `header`. Throws util::InputError when a
/// predicate is out of range for the snapshot's dimensions or the op /
/// group-by combination is not answerable (see the rules in DESIGN.md §4i).
QueryPlan plan_slice(const io::SnapshotHeader& header, const Slice& slice);

}  // namespace appscope::query
