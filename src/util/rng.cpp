#include "util/rng.hpp"

#include <cmath>
#include <limits>

namespace appscope::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::array<std::uint32_t, 4> philox4x32_10(
    std::array<std::uint32_t, 4> counter,
    std::array<std::uint32_t, 2> key) noexcept {
  for (int round = 0; round < kPhiloxRounds; ++round) {
    if (round > 0) {
      key[0] += kPhiloxW0;
      key[1] += kPhiloxW1;
    }
    const std::uint64_t p0 = std::uint64_t{kPhiloxM0} * counter[0];
    const std::uint64_t p1 = std::uint64_t{kPhiloxM1} * counter[2];
    counter = {static_cast<std::uint32_t>(p1 >> 32) ^ counter[1] ^ key[0],
               static_cast<std::uint32_t>(p1),
               static_cast<std::uint32_t>(p0 >> 32) ^ counter[3] ^ key[1],
               static_cast<std::uint32_t>(p0)};
  }
  return counter;
}

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t tag) const noexcept {
  // Mix the full parent state with the tag through SplitMix64 so forked
  // streams do not overlap the parent sequence.
  SplitMix64 sm(s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 47) ^
                (tag * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL));
  Rng child(sm.next());
  return child;
}

double Rng::uniform() noexcept {
  // 53 random bits into the mantissa: uniform on [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless unbiased bounded sampling.
  if (n == 0) return 0;  // degenerate; callers validate via APPSCOPE_REQUIRE
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= std::numeric_limits<double>::min()) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) noexcept {
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::poisson(double lambda) noexcept {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth inversion by multiplication.
    const double limit = std::exp(-lambda);
    double prod = uniform();
    std::uint64_t k = 0;
    while (prod > limit) {
      ++k;
      prod *= uniform();
    }
    return k;
  }
  // Normal approximation with continuity correction; adequate for synthetic
  // traffic volumes at lambda >= 30 (relative error < 1e-2 on tail shares).
  const double x = normal(lambda, std::sqrt(lambda));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

}  // namespace appscope::util
