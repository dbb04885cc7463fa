// appscope/io/snapshot_reader.hpp
//
// Validating reader for the "appscope.snapshot/1" format with an
// mmap-backed zero-copy path: the file is mapped read-only and every
// section accessor returns a span pointing straight into the mapping
// (payloads are kSectionAlignment-aligned in the file, so f64/u64 columns
// can be viewed in place).
//
// Two validation modes:
//   - kEager (default): the whole file is mapped and every section CRC is
//     checked in the constructor — bad magic, version skew, truncation,
//     table/section checksum mismatches and malformed table entries throw
//     util::InputError before any payload is interpreted, never UB.
//   - kLazy: only the header + section table window is mapped and validated
//     up front (magic, version, sizes, table CRC, entry bounds). Each
//     section payload is mapped and CRC-checked on *first touch*, once, so
//     a query that reads one section never pays for — and never even maps —
//     the others. A corrupt untouched section stays invisible; touching it
//     throws the same typed util::InputError an eager open would have.
//     First-touch validation is thread-safe (atomic publish under a mutex),
//     so one lazy reader can serve concurrent query threads.
//
// mapped_bytes() exposes how much of the file is actually mapped — the
// basis for the io.snapshot.mapped_bytes counter that proves lazy opens
// touch strictly less than the file size.
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

/// How much of the snapshot the constructor validates (see file comment).
enum class ValidationMode {
  kEager,
  kLazy,
};

class SnapshotReader {
 public:
  /// Opens `path` and validates per `mode`. Throws util::InputError on any
  /// structural problem (see file comment).
  explicit SnapshotReader(const std::string& path,
                          ValidationMode mode = ValidationMode::kEager);
  ~SnapshotReader();
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  const SnapshotHeader& header() const noexcept { return header_; }
  const std::vector<SectionEntry>& sections() const noexcept { return entries_; }
  bool has_section(SectionId id) const noexcept;

  /// Payload view of one section (zero-copy into the mapping).
  /// Throws util::InputError if the section is absent, or — in lazy mode,
  /// on first touch — if its payload fails the CRC check.
  std::span<const std::byte> section(SectionId id) const;

  /// Typed column views; throw util::InputError when the section kind or
  /// element size does not match.
  std::span<const double> f64_section(SectionId id) const;
  std::span<const std::uint64_t> u64_section(SectionId id) const;

  ValidationMode mode() const noexcept { return mode_; }

  /// Bytes of the file currently mapped. Eager mode reports
  /// the whole file; lazy mode starts at the header + table window and
  /// grows as sections are first touched.
  std::uint64_t mapped_bytes() const noexcept {
    return mapped_bytes_.load(std::memory_order_relaxed);
  }

  const std::string& path() const noexcept { return path_; }
  std::uint64_t file_bytes() const noexcept { return header_.file_bytes; }

 private:
  struct Backing;       // mmap handles
  struct SectionState;  // lazy per-section mapping + validation cache

  std::span<const std::byte> bytes() const noexcept;
  const SectionEntry& entry(SectionId id) const;
  /// Index of `e` in entries_ (for the lazy state table).
  std::size_t entry_index(const SectionEntry& e) const noexcept;
  std::span<const std::byte> payload(const SectionEntry& e) const;
  std::span<const std::byte> lazy_payload(const SectionEntry& e) const;
  void check_payload_crc(const SectionEntry& e,
                         std::span<const std::byte> payload) const;
  void validate_header_and_table(std::span<const std::byte> head,
                                 std::uint64_t actual_file_bytes);
  void validate_all_sections();
  void record_mapped(std::uint64_t bytes) const noexcept;

  std::string path_;
  ValidationMode mode_ = ValidationMode::kEager;
  std::unique_ptr<Backing> backing_;
  SnapshotHeader header_;
  std::vector<SectionEntry> entries_;
  std::unique_ptr<SectionState[]> lazy_sections_;
  mutable std::mutex lazy_mu_;
  mutable std::atomic<std::uint64_t> mapped_bytes_{0};
};

}  // namespace appscope::io
