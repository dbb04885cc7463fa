// appscope/io/binary.hpp
//
// Byte-level primitives of the snapshot store: explicit little-endian
// encode/decode (portable across host endianness), CRC32 section checksums
// and the FNV-1a fingerprint used to tie a snapshot to its ScenarioConfig.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace appscope::io {

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320, init/final
/// 0xFFFFFFFF — the zlib/PNG variant) over a byte range. Computed by the
/// active la::simd table's crc32 kernel: PCLMULQDQ folding under the AVX2
/// dispatch, slicing-by-8 under the scalar one; both return the same value.
std::uint32_t crc32(std::span<const std::byte> bytes) noexcept;

/// FNV-1a 64-bit hash; fingerprints the serialized ScenarioConfig so a
/// snapshot can be matched against the configuration a caller asks for.
std::uint64_t fnv1a64(std::span<const std::byte> bytes) noexcept;

/// Append-only little-endian encoder backing every variable-size section
/// (config, territory, subscribers, catalog). Strings are length-prefixed.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Doubles travel as their IEEE-754 bit pattern: encode/decode is exact,
  /// which is what makes `generate -> save -> load` bitwise reproducible.
  void f64(double v);
  void str(std::string_view s);
  void raw(const void* data, std::size_t size);

  std::span<const std::byte> bytes() const noexcept { return buffer_; }
  std::vector<std::byte> take() && noexcept { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::vector<std::byte> buffer_;
};

/// Bounds-checked little-endian decoder over a section payload (typically a
/// zero-copy view into the mapped snapshot). Throws InputError on overrun —
/// a truncated or corrupted section never reads out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  /// A u64 element count, checked against the unread bytes: each element
  /// encodes to at least `min_element_bytes`, so a corrupted count throws
  /// InputError instead of sizing an allocation past the payload.
  std::size_t count(std::size_t min_element_bytes);

  std::size_t remaining() const noexcept { return bytes_.size() - offset_; }
  bool exhausted() const noexcept { return offset_ == bytes_.size(); }

 private:
  void require(std::size_t size) const;

  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace appscope::io
