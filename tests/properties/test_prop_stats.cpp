// Property-based sweeps over the statistics module: invariants that must
// hold for any sample drawn from a family of distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "stats/distribution.hpp"
#include "stats/regression.hpp"
#include "stats/zipf.hpp"
#include "util/rng.hpp"

namespace appscope::stats {
namespace {

enum class Family { kUniform, kNormal, kLognormal, kBimodal, kHeavyTail };

struct SampleCase {
  Family family;
  std::size_t size;
  std::uint64_t seed;
};

std::vector<double> draw(const SampleCase& c) {
  util::Rng rng(c.seed);
  std::vector<double> out(c.size);
  for (double& v : out) {
    switch (c.family) {
      case Family::kUniform: v = rng.uniform(0.0, 10.0); break;
      case Family::kNormal: v = rng.normal(5.0, 2.0); break;
      case Family::kLognormal: v = rng.lognormal(0.0, 1.5); break;
      case Family::kBimodal:
        v = rng.bernoulli(0.5) ? rng.normal(0.0, 0.5) : rng.normal(10.0, 0.5);
        break;
      case Family::kHeavyTail:
        v = std::pow(rng.uniform(), -0.75);  // Pareto-ish
        break;
    }
  }
  return out;
}

class SampleProperties : public ::testing::TestWithParam<SampleCase> {};

TEST_P(SampleProperties, QuantilesAreMonotoneAndBracketed) {
  const auto xs = draw(GetParam());
  double prev = quantile(xs, 0.0);
  const double lo = prev;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = quantile(xs, q);
    ASSERT_GE(v, prev - 1e-12);
    prev = v;
  }
  const double hi = prev;
  for (const double x : xs) {
    ASSERT_GE(x, lo);
    ASSERT_LE(x, hi);
  }
}

TEST_P(SampleProperties, MeanBetweenMinAndMax) {
  const auto xs = draw(GetParam());
  RunningStats rs;
  for (const double x : xs) rs.add(x);
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  EXPECT_GE(rs.mean(), *lo);
  EXPECT_LE(rs.mean(), *hi);
  EXPECT_GE(rs.variance_population(), 0.0);
}

TEST_P(SampleProperties, EcdfIsAValidCdf) {
  const auto xs = draw(GetParam());
  const Ecdf F(xs);
  double prev = 0.0;
  for (double x = quantile(xs, 0.0) - 1.0; x <= quantile(xs, 1.0) + 1.0;
       x += (quantile(xs, 1.0) - quantile(xs, 0.0) + 2.0) / 37.0) {
    const double v = F(x);
    ASSERT_GE(v, prev - 1e-12);
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(F(quantile(xs, 1.0)), 1.0);
}

TEST_P(SampleProperties, PearsonWithinBoundsAndSelfIsOne) {
  const auto xs = draw(GetParam());
  const auto ys = draw({GetParam().family, GetParam().size, GetParam().seed + 1});
  const double r = pearson(xs, ys);
  EXPECT_GE(r, -1.0);
  EXPECT_LE(r, 1.0);
  EXPECT_NEAR(pearson(xs, xs), 1.0, 1e-12);
}

TEST_P(SampleProperties, GiniBoundsAndScaleInvariance) {
  auto xs = draw(GetParam());
  for (double& x : xs) x = std::abs(x) + 1e-9;
  const double g = gini(xs);
  EXPECT_GE(g, 0.0);
  EXPECT_LE(g, 1.0);
  auto scaled = xs;
  for (double& x : scaled) x *= 123.0;
  EXPECT_NEAR(gini(scaled), g, 1e-9);
}

TEST_P(SampleProperties, CumulativeShareEndsAtOne) {
  auto xs = draw(GetParam());
  for (double& x : xs) x = std::abs(x) + 1e-9;
  const auto cum = cumulative_share_ranked(xs);
  EXPECT_NEAR(cum.back(), 1.0, 1e-9);
  // Top-share function is monotone in the fraction.
  EXPECT_LE(top_fraction_share(xs, 0.1), top_fraction_share(xs, 0.5) + 1e-12);
}

TEST_P(SampleProperties, OlsResidualsOrthogonalToX) {
  const auto xs = draw(GetParam());
  const auto noise = draw({Family::kNormal, GetParam().size, GetParam().seed + 9});
  std::vector<double> ys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ys[i] = 2.0 - 0.7 * xs[i] + 0.1 * noise[i];
  }
  const LinearFit fit = ols(xs, ys);
  double dot = 0.0;
  double mean_resid = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double e = ys[i] - fit.predict(xs[i]);
    dot += e * xs[i];
    mean_resid += e;
  }
  EXPECT_NEAR(dot / static_cast<double>(xs.size()), 0.0, 1e-6);
  EXPECT_NEAR(mean_resid / static_cast<double>(xs.size()), 0.0, 1e-8);
  EXPECT_GE(fit.r2, 0.0);
  EXPECT_LE(fit.r2, 1.0 + 1e-12);
}

const auto kSampleCases = ::testing::Values(
    SampleCase{Family::kUniform, 100, 11}, SampleCase{Family::kUniform, 1000, 12},
    SampleCase{Family::kNormal, 100, 13}, SampleCase{Family::kNormal, 2000, 14},
    SampleCase{Family::kLognormal, 500, 15},
    SampleCase{Family::kLognormal, 50, 16}, SampleCase{Family::kBimodal, 300, 17},
    SampleCase{Family::kHeavyTail, 400, 18},
    SampleCase{Family::kHeavyTail, 64, 19});

std::string sample_case_name(const ::testing::TestParamInfo<SampleCase>& info) {
  static constexpr const char* kNames[] = {"uniform", "normal", "lognormal",
                                           "bimodal", "heavytail"};
  return std::string(kNames[static_cast<std::size_t>(info.param.family)]) +
         "_n" + std::to_string(info.param.size);
}

INSTANTIATE_TEST_SUITE_P(Families, SampleProperties, kSampleCases,
                         sample_case_name);

// --- Zipf fit recovery across exponents -----------------------------------

class ZipfRecovery : public ::testing::TestWithParam<double> {};

TEST_P(ZipfRecovery, FitRecoversGeneratingExponent) {
  const double s = GetParam();
  std::vector<double> series(300);
  for (std::size_t r = 1; r <= series.size(); ++r) {
    series[r - 1] = 1e6 * std::pow(static_cast<double>(r), -s);
  }
  const ZipfFit fit = fit_zipf_top_half(series);
  EXPECT_NEAR(fit.exponent, s, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST_P(ZipfRecovery, NoisyFitStaysClose) {
  const double s = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(s * 1000));
  std::vector<double> series(300);
  for (std::size_t r = 1; r <= series.size(); ++r) {
    series[r - 1] = 1e6 * std::pow(static_cast<double>(r), -s) *
                    rng.lognormal(0.0, 0.15);
  }
  const auto ranked = rank_sizes(series);
  const ZipfFit fit = fit_zipf_top_half(ranked);
  EXPECT_NEAR(fit.exponent, s, 0.25);
}

std::string zipf_case_name(const ::testing::TestParamInfo<double>& info) {
  return "s" + std::to_string(static_cast<int>(info.param * 100));
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfRecovery,
                         ::testing::Values(0.8, 1.0, 1.2, 1.55, 1.69, 2.0, 2.5),
                         zipf_case_name);

}  // namespace
}  // namespace appscope::stats
