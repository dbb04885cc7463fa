// appscope/la/simd_noise.hpp
//
// Constants of the lognormal_philox kernel (la/simd.hpp), shared by its
// scalar reference (simd.cpp) and its AVX2 version (simd_avx2.cpp) so both
// evaluate the very same polynomials. Constants only: a function defined
// here would be instantiated in the -mavx2 TU too, and the linker may keep
// that copy for the baseline build.
//
// The polynomials are fdlibm's (Sun Microsystems, 1993, as kept in musl):
// e_log.c for ln, k_sin.c / k_cos.c for sin and cos on [-pi/4, pi/4], and
// e_exp.c for exp. Each coefficient is written as the hex literal of its
// fdlibm bit pattern.
#pragma once

#include <cstdint>

namespace appscope::la::simd::noise {

/// 2^-53: scales a 53-bit integer onto the unit interval exactly.
inline constexpr double kUnitScale = 0x1p-53;

/// 1.5 * 2^52: adding it to a double of magnitude below 2^51 rounds that
/// double to an integer (nearest, ties to even), and subtracting it back is
/// exact. The integer also sits in the sum's low mantissa bits.
inline constexpr double kRoundShifter = 0x1.8p52;

// --- ln x, x a positive normal double ----------------------------------------
// x = 2^k (1 + f) with 1 + f in [sqrt(2)/2, sqrt(2)): adding kLogHighShift
// to the high word carries into the exponent exactly when the mantissa is
// at or above sqrt(2)/2's, and kLogHighBase rebuilds the reduced mantissa.
// ln(1 + f) = f - hfsq + s (hfsq + R(s^2)), s = f / (2 + f), hfsq = f^2 / 2.
inline constexpr std::uint64_t kLogHighBase = 0x3fe6a09e;
inline constexpr std::uint64_t kLogHighShift = 0x3ff00000 - kLogHighBase;
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;  // k * kLn2Hi is exact
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kLg1 = 0x1.5555555555593p-1;
inline constexpr double kLg2 = 0x1.999999997fa04p-2;
inline constexpr double kLg3 = 0x1.2492494229359p-2;
inline constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
inline constexpr double kLg5 = 0x1.7466496cb03dep-3;
inline constexpr double kLg6 = 0x1.39a09d078c69fp-3;
inline constexpr double kLg7 = 0x1.2f112df3e5244p-3;

// --- sin and cos of x in [-pi/4, pi/4] ---------------------------------------
inline constexpr double kTwoPi = 0x1.921fb54442d18p+2;
inline constexpr double kS1 = -0x1.5555555555549p-3;
inline constexpr double kS2 = 0x1.111111110f8a6p-7;
inline constexpr double kS3 = -0x1.a01a019c161d5p-13;
inline constexpr double kS4 = 0x1.71de357b1fe7dp-19;
inline constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
inline constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
inline constexpr double kC1 = 0x1.555555555554cp-5;
inline constexpr double kC2 = -0x1.6c16c16c15177p-10;
inline constexpr double kC3 = 0x1.a01a019cb1590p-16;
inline constexpr double kC4 = -0x1.27e4f809c52adp-22;
inline constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
inline constexpr double kC6 = -0x1.8fae9be8838d4p-37;

// --- e^x -----------------------------------------------------------------------
// x = k ln2 + r with |r| <= ln2 / 2 (Cody-Waite: hi = x - k kLn2Hi is exact,
// lo = k kLn2Lo), e^r = 1 + r + r c / (2 - c) with c = r - r^2 P(r^2), and
// e^x = e^r 2^k1 2^k2 with k1 = floor(k / 2): two exact power-of-two scales,
// so the one rounding of a subnormal or overflowing result is the last one.
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;
inline constexpr double kP1 = 0x1.555555555553ep-3;
inline constexpr double kP2 = -0x1.6c16c16bebd93p-9;
inline constexpr double kP3 = 0x1.1566aaf25de2cp-14;
inline constexpr double kP4 = -0x1.bbd41c5d26bf1p-20;
inline constexpr double kP5 = 0x1.6376972bea4d0p-25;
/// Rounds x / ln2 to k and biases it by 2048, so the integer read back from
/// the sum's mantissa, k + 2048, is never negative.
inline constexpr double kExpShifter = kRoundShifter + 2048.0;
/// Arguments are clamped into [kExpClampLo, kExpClampHi] before the
/// reduction, which keeps k in [-1076, 1024]; the results past the
/// saturation points are then set exactly.
inline constexpr double kExpClampLo = -746.0;
inline constexpr double kExpClampHi = 710.0;
/// Largest double whose e^x is finite, and smallest whose e^x rounds to a
/// nonzero double: above the first the result is +inf, below the second 0.
inline constexpr double kExpOverflow = 0x1.62e42fefa39efp+9;
inline constexpr double kExpUnderflow = -0x1.74910d52d3051p+9;

}  // namespace appscope::la::simd::noise
