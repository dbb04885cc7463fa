#include "io/snapshot_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

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

/// Owns the file bytes. Eager mode: one whole-file mmap view (base/size).
/// Lazy mode: the fd stays open, `base` points at the header + table window
/// only, and each section gets its own page-aligned mapping on first touch
/// (recorded in SectionState).
struct SnapshotReader::Backing {
  const std::byte* base = nullptr;
  std::size_t size = 0;
  void* map_addr = nullptr;
  std::size_t map_bytes = 0;
  int fd = -1;  // kept open only in lazy mode

  ~Backing() {
    if (map_addr != nullptr) ::munmap(map_addr, map_bytes);
    if (fd >= 0) ::close(fd);
  }
};

/// Lazy per-section cache. `payload` is the published, already-CRC-checked
/// pointer (acquire/release pairs with the store under lazy_mu_); the map
/// fields are owned for unmap at destruction.
struct SnapshotReader::SectionState {
  std::atomic<const std::byte*> payload{nullptr};
  void* map_addr = nullptr;
  std::size_t map_bytes = 0;
};

SnapshotReader::SnapshotReader(const std::string& path, ValidationMode mode)
    : path_(path), mode_(mode), backing_(std::make_unique<Backing>()) {
  util::ScopedSpan span(mode == ValidationMode::kLazy ? "snapshot.open_lazy"
                                                      : "snapshot.open");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path_, "cannot open for reading");
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail(path_, "cannot stat");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (mode_ == ValidationMode::kLazy) {
    // Map just the header + section table window; sections come later.
    backing_->fd = fd;
    const std::size_t head_bytes = std::min(size, kPayloadStart);
    if (head_bytes > 0) {
      void* addr = ::mmap(nullptr, head_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
      if (addr == MAP_FAILED) fail(path_, "mmap failed");
      backing_->map_addr = addr;
      backing_->map_bytes = head_bytes;
      backing_->base = static_cast<const std::byte*>(addr);
      backing_->size = head_bytes;
    }
    validate_header_and_table({backing_->base, backing_->size}, size);
    lazy_sections_ = std::make_unique<SectionState[]>(entries_.size());
    record_mapped(backing_->size);
    return;
  }
  if (size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (addr == MAP_FAILED) fail(path_, "mmap failed");
    backing_->map_addr = addr;
    backing_->map_bytes = size;
    backing_->base = static_cast<const std::byte*>(addr);
    backing_->size = size;
  } else {
    ::close(fd);
  }
  validate_header_and_table({backing_->base, backing_->size}, backing_->size);
  validate_all_sections();
  record_mapped(backing_->size);
  if (util::MetricsRegistry::enabled()) {
    util::MetricsRegistry::global().add("io.snapshot.bytes_read",
                                        backing_->size);
  }
}

SnapshotReader::~SnapshotReader() {
  if (lazy_sections_ != nullptr) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (lazy_sections_[i].map_addr != nullptr) {
        ::munmap(lazy_sections_[i].map_addr, lazy_sections_[i].map_bytes);
      }
    }
  }
}

std::span<const std::byte> SnapshotReader::bytes() const noexcept {
  return {backing_->base, backing_->size};
}

void SnapshotReader::record_mapped(std::uint64_t bytes) const noexcept {
  mapped_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (util::MetricsRegistry::enabled()) {
    util::MetricsRegistry::global().add("io.snapshot.mapped_bytes", bytes);
  }
}

void SnapshotReader::validate_header_and_table(std::span<const std::byte> head,
                                               std::uint64_t actual_file_bytes) {
  if (head.size() < kHeaderBytes) fail(path_, "truncated (no header)");

  // Magic first — anything else about a foreign file is noise.
  for (std::size_t i = 0; i < kSnapshotMagic.size(); ++i) {
    if (static_cast<std::uint8_t>(head[i]) != kSnapshotMagic[i]) {
      fail(path_, "bad magic (not an appscope snapshot)");
    }
  }

  ByteReader r(head.subspan(kSnapshotMagic.size(),
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

  if (header_.file_bytes != actual_file_bytes) {
    fail(path_, "truncated (header expects " +
                    std::to_string(header_.file_bytes) + " bytes, file has " +
                    std::to_string(actual_file_bytes) + ")");
  }
  if (header_.section_count > kMaxSections) {
    fail(path_, "section count out of range");
  }
  if (head.size() < kPayloadStart) fail(path_, "truncated (no section table)");

  const std::span<const std::byte> table =
      head.subspan(kHeaderBytes, kMaxSections * kSectionEntryBytes);
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
        e.offset + e.payload_bytes > actual_file_bytes ||
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

void SnapshotReader::validate_all_sections() {
  // Per-section payload checksums, each under its own span so a slow
  // verification shows up attributed in the trace.
  const std::span<const std::byte> file = bytes();
  for (const SectionEntry& e : entries_) {
    check_payload_crc(e, file.subspan(static_cast<std::size_t>(e.offset),
                                      static_cast<std::size_t>(e.payload_bytes)));
  }
}

bool SnapshotReader::has_section(SectionId id) const noexcept {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const SectionEntry& e) { return e.id == id; });
}

const SectionEntry& SnapshotReader::entry(SectionId id) const {
  for (const SectionEntry& e : entries_) {
    if (e.id == id) return e;
  }
  fail(path_, "missing section '" + std::string(section_name(id)) + "'");
}

std::size_t SnapshotReader::entry_index(const SectionEntry& e) const noexcept {
  return static_cast<std::size_t>(&e - entries_.data());
}

std::span<const std::byte> SnapshotReader::payload(const SectionEntry& e) const {
  if (mode_ == ValidationMode::kLazy) return lazy_payload(e);
  return bytes().subspan(static_cast<std::size_t>(e.offset),
                         static_cast<std::size_t>(e.payload_bytes));
}

std::span<const std::byte> SnapshotReader::lazy_payload(
    const SectionEntry& e) const {
  SectionState& state = lazy_sections_[entry_index(e)];
  // Fast path: already mapped + validated by some thread.
  if (const std::byte* p = state.payload.load(std::memory_order_acquire)) {
    return {p, static_cast<std::size_t>(e.payload_bytes)};
  }
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (const std::byte* p = state.payload.load(std::memory_order_acquire)) {
    return {p, static_cast<std::size_t>(e.payload_bytes)};
  }
  // Aligned like a mapped payload, so an empty column passes the typed
  // views' alignment check.
  alignas(kSectionAlignment) static const std::byte kEmpty{};
  const std::byte* payload_ptr = &kEmpty;
  if (e.payload_bytes > 0) {
    // mmap offsets must be page-aligned; payloads are only
    // kSectionAlignment-aligned, so map from the enclosing page boundary.
    // Page sizes are multiples of kSectionAlignment, so the in-page delta
    // keeps the payload pointer kSectionAlignment-aligned.
    const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t map_start = e.offset & ~(page - 1);
    const std::size_t delta = static_cast<std::size_t>(e.offset - map_start);
    const std::size_t map_len = delta + static_cast<std::size_t>(e.payload_bytes);
    void* addr = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, backing_->fd,
                        static_cast<off_t>(map_start));
    if (addr == MAP_FAILED) {
      fail(path_, "section '" + std::string(section_name(e.id)) +
                      "' mmap failed");
    }
    payload_ptr = static_cast<const std::byte*>(addr) + delta;
    try {
      check_payload_crc(e, {payload_ptr,
                            static_cast<std::size_t>(e.payload_bytes)});
    } catch (...) {
      ::munmap(addr, map_len);
      throw;
    }
    state.map_addr = addr;
    state.map_bytes = map_len;
    record_mapped(map_len);
  } else {
    check_payload_crc(e, {});
  }
  state.payload.store(payload_ptr, std::memory_order_release);
  return {payload_ptr, static_cast<std::size_t>(e.payload_bytes)};
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
