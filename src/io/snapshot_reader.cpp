#include "io/snapshot_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include "io/binary.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace appscope::io {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw util::InputError("snapshot: " + path + ": " + what);
}

}  // namespace

SnapshotReader::Mapping::~Mapping() {
  if (data != nullptr) ::munmap(const_cast<std::byte*>(data), size);
}

SnapshotReader::SnapshotReader(const std::string& path) : path_(path) {
  util::ScopedSpan span("snapshot.open");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path_, "cannot open for reading");
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail(path_, "cannot stat");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (addr == MAP_FAILED) fail(path_, "mmap failed");
    map_.data = static_cast<const std::byte*>(addr);
    map_.size = size;
  } else {
    ::close(fd);
  }
  validate_header_and_table();
  checked_ = std::make_unique<std::atomic<bool>[]>(entries_.size());
  record_read(std::min(size, kPayloadStart));
}

void SnapshotReader::record_read(std::uint64_t bytes) const noexcept {
  mapped_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (util::MetricsRegistry::enabled()) {
    util::MetricsRegistry::global().add("io.snapshot.mapped_bytes", bytes);
  }
}

void SnapshotReader::validate_header_and_table() {
  const std::span<const std::byte> file{map_.data, map_.size};
  if (file.size() < kHeaderBytes) fail(path_, "truncated (no header)");

  // Magic first — anything else about a foreign file is noise.
  for (std::size_t i = 0; i < kSnapshotMagic.size(); ++i) {
    if (static_cast<std::uint8_t>(file[i]) != kSnapshotMagic[i]) {
      fail(path_, "bad magic (not an appscope snapshot)");
    }
  }

  ByteReader r(file.subspan(kSnapshotMagic.size(),
                            kHeaderBytes - kSnapshotMagic.size()));
  header_.version = r.u32();
  const std::uint32_t major = snapshot_version_major(header_.version);
  const std::uint32_t minor = snapshot_version_minor(header_.version);
  if (major != kSnapshotVersionMajor || minor > kSnapshotVersionMinor) {
    fail(path_, "unsupported format version " + std::to_string(major) + "." +
                    std::to_string(minor) + " (this build reads up to " +
                    std::to_string(kSnapshotVersionMajor) + "." +
                    std::to_string(kSnapshotVersionMinor) + ")");
  }
  header_.config_hash = r.u64();
  header_.traffic_seed = r.u64();
  header_.services = r.u32();
  header_.communes = r.u32();
  header_.hours = r.u32();
  header_.directions = r.u32();
  header_.urbanization_classes = r.u32();
  header_.section_count = r.u32();
  header_.file_bytes = r.u64();
  header_.table_crc = r.u32();

  if (header_.file_bytes != file.size()) {
    fail(path_, "truncated (header expects " +
                    std::to_string(header_.file_bytes) + " bytes, file has " +
                    std::to_string(file.size()) + ")");
  }
  if (header_.section_count > kMaxSections) {
    fail(path_, "section count out of range");
  }
  if (file.size() < kPayloadStart) fail(path_, "truncated (no section table)");

  const std::span<const std::byte> table =
      file.subspan(kHeaderBytes, kMaxSections * kSectionEntryBytes);
  if (crc32(table) != header_.table_crc) {
    if (util::MetricsRegistry::enabled()) {
      util::MetricsRegistry::global().add("io.snapshot.checksum_failures");
    }
    fail(path_, "section table checksum mismatch");
  }

  ByteReader tr(table);
  entries_.reserve(header_.section_count);
  for (std::uint32_t i = 0; i < header_.section_count; ++i) {
    SectionEntry e;
    e.id = static_cast<SectionId>(tr.u32());
    const std::uint32_t kind = tr.u32();
    if (kind > static_cast<std::uint32_t>(SectionKind::kU64)) {
      fail(path_, "unknown section kind");
    }
    e.kind = static_cast<SectionKind>(kind);
    e.offset = tr.u64();
    e.payload_bytes = tr.u64();
    e.crc = tr.u32();
    tr.u32();  // reserved
    if (e.offset < kPayloadStart || e.offset % kSectionAlignment != 0 ||
        e.offset + e.payload_bytes > file.size() ||
        e.offset + e.payload_bytes < e.offset) {
      fail(path_, "section '" + std::string(section_name(e.id)) +
                      "' out of file bounds");
    }
    if (std::any_of(entries_.begin(), entries_.end(),
                    [&](const SectionEntry& prev) { return prev.id == e.id; })) {
      fail(path_, "duplicate section id");
    }
    entries_.push_back(e);
  }
}

void SnapshotReader::check_payload_crc(const SectionEntry& e,
                                       std::span<const std::byte> payload) const {
  util::ScopedSpan section_span("snapshot.verify." +
                                std::string(section_name(e.id)));
  if (crc32(payload) != e.crc) {
    if (util::MetricsRegistry::enabled()) {
      util::MetricsRegistry::global().add("io.snapshot.checksum_failures");
    }
    fail(path_, "section '" + std::string(section_name(e.id)) +
                    "' checksum mismatch (corrupted)");
  }
  if (util::MetricsRegistry::enabled()) {
    util::MetricsRegistry::global().add("io.snapshot.sections");
  }
}

const SectionEntry& SnapshotReader::entry(SectionId id) const {
  for (const SectionEntry& e : entries_) {
    if (e.id == id) return e;
  }
  fail(path_, "missing section '" + std::string(section_name(id)) + "'");
}

std::span<const std::byte> SnapshotReader::payload(const SectionEntry& e) const {
  const std::span<const std::byte> bytes{
      map_.data + e.offset, static_cast<std::size_t>(e.payload_bytes)};
  std::atomic<bool>& checked =
      checked_[static_cast<std::size_t>(&e - entries_.data())];
  if (checked.load(std::memory_order_acquire)) return bytes;
  std::lock_guard<std::mutex> lock(check_mu_);
  if (!checked.load(std::memory_order_relaxed)) {
    // A failing section throws here and stays unchecked, so every later
    // touch fails the same way.
    check_payload_crc(e, bytes);
    record_read(e.payload_bytes);
    checked.store(true, std::memory_order_release);
  }
  return bytes;
}

std::span<const std::byte> SnapshotReader::section(SectionId id) const {
  const SectionEntry& e = entry(id);
  return payload(e);
}

std::span<const double> SnapshotReader::f64_section(SectionId id) const {
  const SectionEntry& e = entry(id);
  if (e.kind != SectionKind::kF64 || e.payload_bytes % sizeof(double) != 0) {
    fail(path_, "section '" + std::string(section_name(id)) +
                    "' is not an f64 column");
  }
  const std::span<const std::byte> raw = payload(e);
  APPSCOPE_CHECK(reinterpret_cast<std::uintptr_t>(raw.data()) %
                         alignof(double) ==
                     0,
                 "snapshot: misaligned f64 section view");
  return {reinterpret_cast<const double*>(raw.data()),
          raw.size() / sizeof(double)};
}

std::span<const std::uint64_t> SnapshotReader::u64_section(SectionId id) const {
  const SectionEntry& e = entry(id);
  if (e.kind != SectionKind::kU64 ||
      e.payload_bytes % sizeof(std::uint64_t) != 0) {
    fail(path_, "section '" + std::string(section_name(id)) +
                    "' is not a u64 column");
  }
  const std::span<const std::byte> raw = payload(e);
  APPSCOPE_CHECK(reinterpret_cast<std::uintptr_t>(raw.data()) %
                         alignof(std::uint64_t) ==
                     0,
                 "snapshot: misaligned u64 section view");
  return {reinterpret_cast<const std::uint64_t*>(raw.data()),
          raw.size() / sizeof(std::uint64_t)};
}

}  // namespace appscope::io
