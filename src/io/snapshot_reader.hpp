// appscope/io/snapshot_reader.hpp
//
// Validating reader for the "appscope.snapshot/1" format with an
// mmap-backed zero-copy path: the file is mapped read-only once and every
// section accessor returns a span pointing straight into the mapping
// (payloads are kSectionAlignment-aligned in the file, so f64/u64 columns
// can be viewed in place).
//
// The constructor validates the header and the section table: bad magic,
// version skew, truncation, a table checksum mismatch and malformed table
// entries throw util::InputError before any payload is interpreted, never
// UB. Each section's payload CRC is checked on its *first touch*, once.
// The mapping is demand-paged, so a query that reads one section reads
// only that section's pages. A corrupt section stays invisible until it is
// touched, and then throws util::InputError on every touch. First-touch
// validation is thread-safe (a flag published under a mutex), so one reader
// can serve concurrent query threads. io::read_snapshot touches every
// section before it decodes, so a full load checks every CRC.
//
// mapped_bytes() counts the bytes read so far — the header + table window
// plus every checked section — the basis for the io.snapshot.mapped_bytes
// counter that shows a query reads strictly less than the file.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "io/format.hpp"

namespace appscope::io {

class SnapshotReader {
 public:
  /// Maps `path` and validates its header and section table. Throws
  /// util::InputError on any structural problem (see file comment).
  explicit SnapshotReader(const std::string& path);
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  const SnapshotHeader& header() const noexcept { return header_; }
  const std::vector<SectionEntry>& sections() const noexcept { return entries_; }

  /// Payload view of one section (zero-copy into the mapping). Throws
  /// util::InputError if the section is absent or its payload fails the
  /// CRC check.
  std::span<const std::byte> section(SectionId id) const;

  /// Typed column views; throw util::InputError when the section kind or
  /// element size does not match.
  std::span<const double> f64_section(SectionId id) const;
  std::span<const std::uint64_t> u64_section(SectionId id) const;

  /// Bytes read so far: the header + table window, plus each section once
  /// its CRC has been checked.
  std::uint64_t mapped_bytes() const noexcept {
    return mapped_bytes_.load(std::memory_order_relaxed);
  }

  const std::string& path() const noexcept { return path_; }
  std::uint64_t file_bytes() const noexcept { return header_.file_bytes; }

 private:
  /// The read-only whole-file mapping, unmapped on destruction.
  struct Mapping {
    const std::byte* data = nullptr;
    std::size_t size = 0;
    Mapping() = default;
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;
    ~Mapping();
  };

  const SectionEntry& entry(SectionId id) const;
  std::span<const std::byte> payload(const SectionEntry& e) const;
  void check_payload_crc(const SectionEntry& e,
                         std::span<const std::byte> payload) const;
  void validate_header_and_table();
  void record_read(std::uint64_t bytes) const noexcept;

  std::string path_;
  Mapping map_;
  SnapshotHeader header_;
  std::vector<SectionEntry> entries_;
  /// Per entry: set once its payload CRC has passed.
  std::unique_ptr<std::atomic<bool>[]> checked_;
  mutable std::mutex check_mu_;
  mutable std::atomic<std::uint64_t> mapped_bytes_{0};
};

}  // namespace appscope::io
