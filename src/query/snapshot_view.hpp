// appscope/query/snapshot_view.hpp
//
// Read-side handle on one "appscope.snapshot/1" file for the query engine:
// an io::SnapshotReader plus typed row accessors over the three aggregate
// cubes. Opening a view validates only the header and section table; the
// first query that touches a cube reads and CRC-checks just that section
// (see snapshot_reader.hpp). Row accessors are zero-copy spans into the
// mapping and are safe to call from any number of reader threads
// concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "geo/commune.hpp"
#include "io/snapshot_reader.hpp"
#include "synth/aggregate_tables.hpp"
#include "workload/catalog.hpp"
#include "workload/service.hpp"

namespace appscope::query {

class SnapshotView {
 public:
  /// Opens `path`. Throws util::InputError on a structurally invalid file
  /// (header/table problems); per-section corruption surfaces on first
  /// touch of that section.
  explicit SnapshotView(const std::string& path);

  const io::SnapshotHeader& header() const noexcept { return reader_.header(); }
  std::size_t services() const noexcept { return header().services; }
  std::size_t communes() const noexcept { return header().communes; }
  std::size_t hours() const noexcept { return header().hours; }
  /// Table shape of the header's dimensions; every cube section is
  /// validated against it.
  synth::AggregateLayout layout() const noexcept {
    return {services(), communes()};
  }

  /// Cheap identity of the open snapshot: config hash, traffic seed, file
  /// size and table CRC mixed into one value. Two snapshots with equal
  /// fingerprints hold the same aggregates for caching purposes.
  std::uint64_t fingerprint() const noexcept;

  /// Hourly national series of one (service, direction): hours() doubles.
  std::span<const double> national_row(std::size_t service,
                                       workload::Direction d) const;

  /// Whole f64 column of one aggregate cube section, validated against the
  /// header dimensions (CRC-checks the section on first touch).
  /// Precondition: `id` names one of the three cube sections.
  std::span<const double> column(io::SectionId id) const;

  /// The embedded service catalog, decoded on first use (touches the
  /// catalog section only). Thread-safe.
  const workload::ServiceCatalog& catalog() const;

  std::uint64_t mapped_bytes() const noexcept { return reader_.mapped_bytes(); }
  std::uint64_t file_bytes() const noexcept { return reader_.file_bytes(); }
  const std::string& path() const noexcept { return reader_.path(); }
  const io::SnapshotReader& reader() const noexcept { return reader_; }

 private:
  std::span<const double> validated_column(io::SectionId id,
                                           std::size_t expected_elems) const;

  io::SnapshotReader reader_;
  mutable std::once_flag catalog_once_;
  mutable std::unique_ptr<const workload::ServiceCatalog> catalog_;
};

}  // namespace appscope::query
