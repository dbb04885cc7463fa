// appscope/io/format.hpp
//
// On-disk layout of the "appscope.snapshot/1" binary columnar format.
//
//   offset 0                 FileHeader (kHeaderBytes, little-endian)
//   kHeaderBytes             section table (kMaxSections fixed slots of
//                            kSectionEntryBytes; entries past
//                            header.section_count are zero)
//   align64(...)             section payloads, each aligned to
//                            kSectionAlignment so a double/u64 column can be
//                            viewed in place straight out of an mmap
//
// Every section carries a CRC32 of its payload in the table; the table
// itself is covered by header.table_crc, and header.file_bytes pins the
// expected total size so truncation is detected before any payload is
// touched. All multi-byte values are little-endian on disk.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace appscope::io {

/// File magic, first 8 bytes. The trailing \r\n\x1a catches FTP-style text
/// transcoding the same way the PNG magic does.
inline constexpr std::array<std::uint8_t, 8> kSnapshotMagic = {
    0x89, 'A', 'P', 'S', 'N', 'P', '\r', '\n'};

/// Format version ("appscope.snapshot/1"), packed major.minor: the low 16
/// bits carry the major version, the high 16 bits the minor. v1.0 files
/// wrote the bare major (1), which unpacks to minor 0 — so the packing is
/// itself backward compatible. Minor bumps are additive (v1.1: the config
/// section carries a region identifier and popularity tilt); readers accept
/// any minor up to their own and reject newer majors AND newer minors — a
/// file from the future may carry sections this build cannot interpret.
inline constexpr std::uint32_t kSnapshotVersionMajor = 1;
inline constexpr std::uint32_t kSnapshotVersionMinor = 1;
inline constexpr std::string_view kSnapshotSchemaName = "appscope.snapshot/1";

constexpr std::uint32_t pack_snapshot_version(std::uint32_t major,
                                              std::uint32_t minor) noexcept {
  return (minor << 16) | (major & 0xFFFFu);
}
constexpr std::uint32_t snapshot_version_major(std::uint32_t v) noexcept {
  return v & 0xFFFFu;
}
constexpr std::uint32_t snapshot_version_minor(std::uint32_t v) noexcept {
  return v >> 16;
}

/// The packed version written by this build.
inline constexpr std::uint32_t kSnapshotVersion =
    pack_snapshot_version(kSnapshotVersionMajor, kSnapshotVersionMinor);

/// Payload alignment: generous enough for any scalar column type and for
/// cache-line-aligned bulk copies out of the mapping.
inline constexpr std::size_t kSectionAlignment = 64;

/// Fixed section-table capacity. The table is written up front (before the
/// payload sizes are known) so the writer streams sections in one pass and
/// seeks back only once; v1 uses 9 of the 16 slots.
inline constexpr std::size_t kMaxSections = 16;

inline constexpr std::size_t kHeaderBytes = 80;
inline constexpr std::size_t kSectionEntryBytes = 32;

constexpr std::size_t align_up(std::size_t n, std::size_t alignment) noexcept {
  return (n + alignment - 1) / alignment * alignment;
}

/// First payload byte: header, then the fixed-capacity table, aligned.
inline constexpr std::size_t kPayloadStart =
    align_up(kHeaderBytes + kMaxSections * kSectionEntryBytes,
             kSectionAlignment);

/// One section per aggregate table plus the self-containment sections. The
/// table payloads are synth::AggregateTables<double> verbatim; their element
/// order is synth::AggregateLayout.
enum class SectionId : std::uint32_t {
  kConfig = 1,              // serialized synth::ScenarioConfig
  kTerritory = 2,           // serialized geo::Territory
  kSubscribers = 3,         // workload::SubscriberBase per-commune counts
  kCatalog = 4,             // serialized workload::ServiceCatalog
  kNationalSeries = 5,      // f64 AggregateTables::national()
  kCommuneTotals = 6,       // f64 AggregateTables::commune_totals()
  kUrbanizationSeries = 7,  // f64 AggregateTables::urbanization()
  kTotals = 8,              // raw: downlink f64, uplink f64, cells u64
  kClassSubscribers = 9,    // u64 [urbanization class]
};

/// Element type of a section payload; scalar columns get alignment + an
/// exact element-count check on load, raw sections are decoded by
/// ByteReader.
enum class SectionKind : std::uint32_t {
  kRaw = 0,
  kF64 = 1,
  kU64 = 2,
};

/// Stable lowercase name, used for metric/span labels and error messages.
std::string_view section_name(SectionId id) noexcept;

/// Decoded file header.
struct SnapshotHeader {
  std::uint32_t version = kSnapshotVersion;
  /// FNV-1a fingerprint of the serialized ScenarioConfig section.
  std::uint64_t config_hash = 0;
  std::uint64_t traffic_seed = 0;
  // Dimensions the columnar sections are shaped by.
  std::uint32_t services = 0;
  std::uint32_t communes = 0;
  std::uint32_t hours = 0;
  std::uint32_t directions = 0;
  std::uint32_t urbanization_classes = 0;
  std::uint32_t section_count = 0;
  /// Expected total file size (truncation check).
  std::uint64_t file_bytes = 0;
  /// CRC32 over the kMaxSections * kSectionEntryBytes table bytes.
  std::uint32_t table_crc = 0;
};

/// Decoded section-table entry.
struct SectionEntry {
  SectionId id = SectionId::kConfig;
  SectionKind kind = SectionKind::kRaw;
  std::uint64_t offset = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t crc = 0;
};

}  // namespace appscope::io
