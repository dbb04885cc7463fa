// The crc32 entries of the la::simd kernel tables against the bytewise
// reference (support/crc32_reference.hpp): slicing-by-8 (scalar table) and
// PCLMULQDQ folding (AVX2 table) must return exactly the values the
// bytewise loop returns, on every length and alignment the fold's block
// and tail paths can see.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "la/simd.hpp"
#include "support/crc32_reference.hpp"
#include "util/rng.hpp"

namespace appscope::la::simd {
namespace {

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.next_u64() & 0xFFu);
  return out;
}

class Crc32Kernel : public ::testing::TestWithParam<Dispatch> {
 protected:
  void SetUp() override {
    if (GetParam() == Dispatch::kAvx2 && !avx2_available()) {
      GTEST_SKIP() << "AVX2/PCLMULQDQ kernels not compiled in or not supported";
    }
  }
  std::uint32_t crc(std::span<const std::byte> bytes) const {
    return kernels_for(GetParam()).crc32(bytes.data(), bytes.size());
  }
};

TEST_P(Crc32Kernel, MatchesBytewiseOnEveryLengthAndOffset) {
  // Lengths 0..4096 cover the under-64-byte path, every n mod 16 tail and
  // several 64-byte fold steps; offsets 0..15 cover every 16-byte
  // misalignment of the unaligned loads.
  constexpr std::size_t kMaxLength = 4096;
  constexpr std::size_t kOffsets = 16;
  const std::vector<std::byte> buffer = random_bytes(kMaxLength + kOffsets, 7);
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    for (std::size_t n = 0; n <= kMaxLength; ++n) {
      const std::span<const std::byte> bytes(buffer.data() + offset, n);
      ASSERT_EQ(crc(bytes), test_support::crc32_reference(bytes))
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST_P(Crc32Kernel, MatchesBytewiseOnOneMebibyte) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  const std::vector<std::byte> buffer = random_bytes(kMiB + 3, 11);
  const std::span<const std::byte> all(buffer);
  EXPECT_EQ(crc(all.first(kMiB)),
            test_support::crc32_reference(all.first(kMiB)));
  EXPECT_EQ(crc(all.subspan(3)), test_support::crc32_reference(all.subspan(3)));
}

TEST_P(Crc32Kernel, CheckValueAndEmptyInput) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc(std::as_bytes(std::span(kCheck.data(), kCheck.size()))),
            0xCBF43926u);  // the CRC-32/ISO-HDLC check value
  EXPECT_EQ(crc({}), 0u);
}

TEST_P(Crc32Kernel, EverySingleBitFlipChangesTheCrc) {
  std::vector<std::byte> buffer = random_bytes(4096, 13);
  const std::uint32_t base = crc(buffer);
  for (std::size_t bit = 0; bit < buffer.size() * 8; ++bit) {
    const auto mask = static_cast<std::byte>(1u << (bit % 8));
    buffer[bit / 8] ^= mask;
    ASSERT_NE(crc(buffer), base) << "flipping bit " << bit;
    buffer[bit / 8] ^= mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Dispatches, Crc32Kernel,
                         ::testing::Values(Dispatch::kScalar, Dispatch::kAvx2),
                         [](const ::testing::TestParamInfo<Dispatch>& info) {
                           return info.param == Dispatch::kAvx2 ? "avx2"
                                                                : "scalar";
                         });

}  // namespace
}  // namespace appscope::la::simd
