#include "la/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "la/fft_plan.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::la {
namespace {

TEST(NextPow2, Basics) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(168), 256u);
  EXPECT_EQ(next_pow2(256), 256u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan::plan_for(3), util::PreconditionError);
}

TEST(Fft, ForwardOfImpulseIsFlat) {
  std::vector<std::complex<double>> data(8, 0.0);
  data[0] = 1.0;
  FftPlan::plan_for(data.size()).forward(data.data());
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, RoundTripRecoversSignal) {
  util::Rng rng(5);
  std::vector<std::complex<double>> data(64);
  std::vector<std::complex<double>> original(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    original[i] = data[i];
  }
  const FftPlan& plan = FftPlan::plan_for(data.size());
  plan.forward(data.data());
  // The inverse DFT through the forward one: x = conj(F(conj(X))) / n.
  for (auto& x : data) x = std::conj(x);
  plan.forward(data.data());
  const double n = static_cast<double>(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real() / n, original[i].real(), 1e-10);
    EXPECT_NEAR(-data[i].imag() / n, original[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  util::Rng rng(6);
  std::vector<std::complex<double>> data(32);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = {rng.uniform(-1, 1), 0.0};
    time_energy += std::norm(x);
  }
  FftPlan::plan_for(data.size()).forward(data.data());
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / 32.0, time_energy, 1e-10);
}

TEST(RealFft, RoundTripRecoversSignal) {
  util::Rng rng(8);
  for (std::size_t n = 2; n <= 1024; n *= 2) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-3, 3);
    const RealFftPlan& plan = RealFftPlan::plan_for(n);
    ASSERT_EQ(plan.spectrum_size(), n / 2 + 1) << "n=" << n;
    std::vector<std::complex<double>> spectrum(plan.spectrum_size());
    plan.forward(x, spectrum);
    std::vector<double> back(n);
    plan.inverse(spectrum, back);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], x[i], 1e-10) << "n=" << n << " i=" << i;
    }
  }
}

TEST(RealFft, MatchesComplexFft) {
  util::Rng rng(9);
  for (std::size_t n = 2; n <= 512; n *= 2) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-3, 3);
    std::vector<std::complex<double>> spectrum(n / 2 + 1);
    RealFftPlan::plan_for(n).forward(x, spectrum);
    std::vector<std::complex<double>> full(n);
    for (std::size_t i = 0; i < n; ++i) full[i] = x[i];
    FftPlan::plan_for(n).forward(full.data());
    for (std::size_t k = 0; k <= n / 2; ++k) {
      EXPECT_NEAR(spectrum[k].real(), full[k].real(), 1e-10)
          << "n=" << n << " k=" << k;
      EXPECT_NEAR(spectrum[k].imag(), full[k].imag(), 1e-10)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(RealFft, ZeroPadsShortInput) {
  const std::vector<double> x{1.0, -2.0, 3.0};
  std::vector<std::complex<double>> spectrum(5);
  RealFftPlan::plan_for(8).forward(x, spectrum);
  std::vector<std::complex<double>> full(8, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) full[i] = x[i];
  FftPlan::plan_for(8).forward(full.data());
  for (std::size_t k = 0; k <= 4; ++k) {
    EXPECT_NEAR(spectrum[k].real(), full[k].real(), 1e-12);
    EXPECT_NEAR(spectrum[k].imag(), full[k].imag(), 1e-12);
  }
}

TEST(RealFft, EdgeBinsAreReal) {
  util::Rng rng(10);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<std::complex<double>> spectrum(33);
  RealFftPlan::plan_for(64).forward(x, spectrum);
  EXPECT_NEAR(spectrum.front().imag(), 0.0, 1e-12);
  EXPECT_NEAR(spectrum.back().imag(), 0.0, 1e-12);
}

TEST(FftPlanCache, SharedPlanMatchesFreshPlan) {
  util::Rng rng(11);
  std::vector<std::complex<double>> a(128), b(128);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    b[i] = a[i];
  }
  const FftPlan fresh(128);  // direct construction bypasses the cache
  fresh.forward(a.data());
  FftPlan::plan_for(128).forward(b.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "i=" << i;  // same plan tables => same bits
  }
}

TEST(CrossCorrelation, DirectMatchesHandComputation) {
  // a = [1,2,3], b = [1,1]: r[k] = sum_j a[j+s] b[j], s = k-1.
  const auto r = cross_correlation_direct({1, 2, 3}, {1, 1});
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 1.0);  // s=-1: a[0]*b[1]
  EXPECT_DOUBLE_EQ(r[1], 3.0);  // s=0: 1+2
  EXPECT_DOUBLE_EQ(r[2], 5.0);  // s=1: 2+3
  EXPECT_DOUBLE_EQ(r[3], 3.0);  // s=2: a[2]*b[0]
}

TEST(CrossCorrelation, UnequalLengths) {
  // a = [1,2,3,4], b = [1,0,1]: r[k] = sum_j a[j+s] b[j], s = k-2.
  const auto r = cross_correlation_direct({1, 2, 3, 4}, {1, 0, 1});
  const std::vector<double> expected{1, 2, 4, 6, 3, 4};
  ASSERT_EQ(r.size(), 6u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_NEAR(r[i], expected[i], 1e-10);
  }
}

TEST(CrossCorrelation, AutoCorrelationPeakAtZeroShift) {
  const std::vector<double> a{1, -2, 3, -1, 0.5};
  const auto r = cross_correlation_direct(a, a);
  // Zero shift is at index n-1.
  std::size_t best = 0;
  for (std::size_t i = 1; i < r.size(); ++i) {
    if (r[i] > r[best]) best = i;
  }
  EXPECT_EQ(best, a.size() - 1);
}

TEST(CrossCorrelation, EmptyInputThrows) {
  EXPECT_THROW(cross_correlation_direct({}, {1.0}), util::PreconditionError);
  EXPECT_THROW(cross_correlation_direct({1.0}, {}), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::la
