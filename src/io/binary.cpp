#include "io/binary.hpp"

#include <bit>
#include <cstring>

#include "la/simd.hpp"
#include "util/error.hpp"

namespace appscope::io {

std::uint32_t crc32(std::span<const std::byte> bytes) noexcept {
  return la::simd::active().crc32(bytes.data(), bytes.size());
}

std::uint64_t fnv1a64(std::span<const std::byte> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// --- ByteWriter -------------------------------------------------------------

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<std::byte>((v >> shift) & 0xFFu));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<std::byte>((v >> shift) & 0xFFu));
  }
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  APPSCOPE_REQUIRE(s.size() <= 0xFFFFFFFFu, "ByteWriter: string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void ByteWriter::raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::byte*>(data);
  buffer_.insert(buffer_.end(), p, p + size);
}

// --- ByteReader -------------------------------------------------------------

void ByteReader::require(std::size_t size) const {
  if (remaining() < size) {
    throw util::InputError("snapshot: truncated payload (need " +
                           std::to_string(size) + " bytes, have " +
                           std::to_string(remaining()) + ")");
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return static_cast<std::uint8_t>(bytes_[offset_++]);
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(bytes_[offset_++]) << shift;
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  require(8);
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(bytes_[offset_++]) << shift;
  }
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t size = u32();
  require(size);
  std::string out(size, '\0');
  std::memcpy(out.data(), bytes_.data() + offset_, size);
  offset_ += size;
  return out;
}

std::size_t ByteReader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / min_element_bytes) {
    throw util::InputError("snapshot: element count " + std::to_string(n) +
                           " exceeds the " + std::to_string(remaining()) +
                           " payload bytes left");
  }
  return static_cast<std::size_t>(n);
}

}  // namespace appscope::io
