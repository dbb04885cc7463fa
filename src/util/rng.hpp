// appscope/util/rng.hpp
//
// Deterministic random-number generation for reproducible experiments.
//
// Every synthetic-data component in appscope draws randomness from an
// explicitly seeded Rng; results never depend on wall-clock entropy, so the
// same scenario seed regenerates the same figures bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace appscope::util {

/// SplitMix64: used to expand a single 64-bit seed into stream states.
/// Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Philox4x32-10 constants: the round multipliers, the Weyl key
/// increments applied before rounds 2..10, and the round count.
inline constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
inline constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
inline constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;
inline constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;
inline constexpr int kPhiloxRounds = 10;

/// Philox4x32-10 block (Salmon, Moraes, Dror & Shaw, "Parallel Random
/// Numbers: As Easy as 1, 2, 3", SC 2011): ten rounds of the 4x32
/// multiply-xor bijection keyed by `key`. A counter-based generator: each
/// output block is a pure function of (counter, key), so any element of a
/// stream is computed without generating the ones before it. Reproduces the
/// Random123 known-answer vectors. Out of line on purpose: la::simd's scalar
/// noise kernel calls it, and a shared inline copy could be linked in its
/// -mavx2 instantiation (the AVX2 kernel runs its own vector rounds).
std::array<std::uint32_t, 4> philox4x32_10(
    std::array<std::uint32_t, 4> counter,
    std::array<std::uint32_t, 2> key) noexcept;

/// Xoshiro256** — fast, high-quality 64-bit generator (Blackman & Vigna).
/// Satisfies the UniformRandomBitGenerator requirements so it composes with
/// <random> distributions, but appscope draws through its own members below
/// for cross-platform determinism (libstdc++/libc++ distributions differ).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from SplitMix64(seed).
  explicit Rng(std::uint64_t seed = 0x5EEDCAFEF00DULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  std::uint64_t operator()() noexcept { return next_u64(); }
  std::uint64_t next_u64() noexcept;

  /// Derives an independent child stream; children with distinct tags are
  /// statistically independent of the parent and of each other.
  Rng fork(std::uint64_t tag) const noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0 (unbiased via rejection).
  std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Standard normal via Box-Muller (cached second variate).
  double normal() noexcept;
  /// Normal with given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) noexcept;
  /// Log-normal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;
  /// Poisson with mean lambda >= 0 (inversion for small, PTRS for large).
  std::uint64_t poisson(double lambda) noexcept;
  /// Bernoulli with success probability p in [0,1].
  bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace appscope::util
