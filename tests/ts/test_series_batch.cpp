#include "ts/series_batch.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "la/fft.hpp"
#include "la/fft_plan.hpp"
#include "la/vector_ops.hpp"
#include "ts/sbd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::ts {
namespace {

std::vector<std::vector<double>> random_series(std::size_t count,
                                               std::size_t length,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> out(count, std::vector<double>(length));
  for (auto& row : out) {
    for (double& v : row) v = rng.normal();
  }
  return out;
}

TEST(SeriesBatch, StoresRowsAndNorms) {
  const auto rows = random_series(5, 168, 1);
  const SeriesBatch batch(rows);
  EXPECT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch.length(), 168u);
  EXPECT_TRUE(batch.spectral());  // 168 > kSbdSpectralThreshold
  EXPECT_EQ(batch.padded_size(), la::next_pow2(2 * 168 - 1));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto row = batch.series(i);
    ASSERT_EQ(row.size(), 168u);
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_EQ(row[j], rows[i][j]);
    }
    EXPECT_EQ(batch.norm(i), la::norm2(rows[i]));
  }
}

TEST(SeriesBatch, ShortSeriesSkipSpectra) {
  const auto rows = random_series(3, kSbdSpectralThreshold, 2);
  const SeriesBatch batch(rows);
  EXPECT_FALSE(batch.spectral());
  EXPECT_EQ(batch.padded_size(), 0u);
  EXPECT_FALSE(sbd_uses_spectral(kSbdSpectralThreshold));
  EXPECT_TRUE(sbd_uses_spectral(kSbdSpectralThreshold + 1));
}

TEST(SeriesBatch, CachedSpectrumMatchesFreshRfft) {
  const auto rows = random_series(2, 100, 3);
  const SeriesBatch batch(rows);
  const la::RealFftPlan& plan = la::RealFftPlan::plan_for(batch.padded_size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::vector<std::complex<double>> fresh(plan.spectrum_size());
    plan.forward(rows[i], fresh);
    const auto cached = batch.spectrum(i);
    ASSERT_EQ(cached.size(), fresh.size());
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      EXPECT_EQ(cached[k], fresh[k]) << "i=" << i << " k=" << k;
    }
  }
}

TEST(SeriesBatch, ZeroConstructorThenSetSeries) {
  SeriesBatch batch(3, 168);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.norm(1), 0.0);

  const auto rows = random_series(1, 168, 4);
  batch.set_series(1, rows[0]);
  EXPECT_EQ(batch.norm(1), la::norm2(rows[0]));
  const la::RealFftPlan& plan = la::RealFftPlan::plan_for(batch.padded_size());
  std::vector<std::complex<double>> fresh(plan.spectrum_size());
  plan.forward(rows[0], fresh);
  const auto cached = batch.spectrum(1);
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    EXPECT_EQ(cached[k], fresh[k]);
  }
  // Untouched rows keep their zero state.
  EXPECT_EQ(batch.norm(0), 0.0);
  EXPECT_EQ(batch.norm(2), 0.0);
}

TEST(SeriesBatch, RejectsRaggedAndEmptyInput) {
  const std::vector<std::vector<double>> ragged{{1.0, 2.0}, {1.0}};
  EXPECT_THROW(SeriesBatch batch(ragged), util::PreconditionError);
  const std::vector<std::vector<double>> zero_length{{}, {}};
  EXPECT_THROW(SeriesBatch batch(zero_length), util::PreconditionError);
}

TEST(SbdPair, BitIdenticalToPerPairSbd) {
  for (const std::size_t length : {32u, 168u}) {  // direct and spectral paths
    const auto rows = random_series(6, length, 5);
    const SeriesBatch batch(rows);
    auto& scratch = sbd_scratch();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = 0; j < rows.size(); ++j) {
        const SbdResult batched = sbd_pair(batch, i, batch, j, scratch);
        const SbdResult plain = sbd(rows[i], rows[j]);
        EXPECT_EQ(batched.distance, plain.distance)
            << "m=" << length << " i=" << i << " j=" << j;
        EXPECT_EQ(batched.shift, plain.shift);
        EXPECT_EQ(batched.ncc, plain.ncc);
        EXPECT_EQ(sbd_pair_distance(batch, i, batch, j, scratch),
                  plain.distance);
      }
    }
  }
}

TEST(SbdPair, ZeroSeriesYieldsUnitDistance) {
  SeriesBatch batch(2, 168);
  const auto rows = random_series(1, 168, 6);
  batch.set_series(0, rows[0]);
  auto& scratch = sbd_scratch();
  const SbdResult r = sbd_pair(batch, 0, batch, 1, scratch);
  EXPECT_EQ(r.distance, 1.0);
  EXPECT_EQ(r.ncc, 0.0);
}

TEST(DistanceMatrixType, IndexingAndEquality) {
  DistanceMatrix m(3);
  EXPECT_EQ(m.size(), 3u);
  m(0, 1) = 0.5;
  m(1, 2) = 0.25;
  m.symmetrize_upper();
  EXPECT_EQ(m(1, 0), 0.5);
  EXPECT_EQ(m(2, 1), 0.25);
  EXPECT_EQ(m(0, 0), 0.0);
  ASSERT_EQ(m.row(1).size(), 3u);
  EXPECT_EQ(m.row(1)[0], 0.5);

  DistanceMatrix same(3);
  same(0, 1) = 0.5;
  same(1, 2) = 0.25;
  same.symmetrize_upper();
  EXPECT_TRUE(m == same);
  same(0, 2) = 1.0;
  EXPECT_FALSE(m == same);
}

TEST(SbdDistanceMatrix, MatchesPairwiseSbdAndIsSymmetric) {
  const auto rows = random_series(7, 96, 8);
  const SeriesBatch batch(rows);
  const DistanceMatrix m = sbd_distance_matrix(batch);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(m(i, i), 0.0);
    for (std::size_t j = i + 1; j < rows.size(); ++j) {
      EXPECT_EQ(m(i, j), sbd_distance(rows[i], rows[j]));
      EXPECT_EQ(m(i, j), m(j, i));
    }
  }
}

}  // namespace
}  // namespace appscope::ts
