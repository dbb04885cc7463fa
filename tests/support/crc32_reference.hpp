// Bytewise CRC-32, the tests' reference for the la::simd crc32 kernels.
//
// This is the loop io::crc32 ran before the checksum moved into the kernel
// table: one 256-entry table, one byte per step. It is kept only to check
// that the slicing-by-8 and PCLMULQDQ kernels return the same values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace appscope::test_support {

/// CRC-32 with reflected polynomial 0xEDB88320, init and final XOR
/// 0xFFFFFFFF, computed one byte at a time.
inline std::uint32_t crc32_reference(
    std::span<const std::byte> bytes) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[n] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    crc = table[(crc ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace appscope::test_support
