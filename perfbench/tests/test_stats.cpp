// Tests of the benchmark harness's statistics helpers.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(NearestRank, PicksTheSmallestSampleCoveringP) {
  const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  EXPECT_EQ(nearest_rank(v, 50), 5);
  EXPECT_EQ(nearest_rank(v, 51), 6);
  EXPECT_EQ(nearest_rank(v, 90), 9);
  EXPECT_EQ(nearest_rank(v, 100), 10);
  EXPECT_EQ(nearest_rank(v, 1), 1);
}

TEST(NearestRank, SingleSampleIsEveryPercentile) {
  EXPECT_EQ(nearest_rank({42.0}, 1), 42.0);
  EXPECT_EQ(nearest_rank({42.0}, 99), 42.0);
}

TEST(NearestRank, RejectsEmptyInputAndBadPercentiles) {
  EXPECT_THROW(nearest_rank({}, 50), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, 101), std::invalid_argument);
}

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(100), 90);  // rank 90, 10 beyond
  EXPECT_EQ(tail_percentile(1000), 99);  // rank 990, 10 beyond
  EXPECT_EQ(tail_percentile(20), 50);   // rank 10, 10 beyond
  EXPECT_EQ(tail_percentile(40), 75);   // rank 30, 10 beyond
  EXPECT_EQ(tail_percentile(200), 95);  // rank 190, 10 beyond
}

TEST(TailPercentile, NoneBelowTwentySamples) {
  EXPECT_FALSE(tail_percentile(19).has_value());
  EXPECT_FALSE(tail_percentile(0).has_value());
}

TEST(TailPercentile, EveryChoiceLeavesTenBeyondAndTheNextDoesNot) {
  for (std::size_t n = 20; n < 2000; ++n) {
    const int p = tail_percentile(n).value();
    EXPECT_GE(samples_beyond(n, p), 10u) << n;
    if (p < 99) {
      EXPECT_LT(samples_beyond(n, p + 1), 10u) << n;
    }
  }
}

TEST(Summarize, ReportsMedianAndRuleTail) {
  const Summary s = summarize(one_to(100));
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.tail_pct, 90);
  EXPECT_EQ(s.tail, 90);
}

TEST(Summarize, FallsBackToTheMedianWhenSamplesAreFew) {
  const Summary s = summarize(one_to(7));
  EXPECT_EQ(s.tail_pct, 50);
  EXPECT_EQ(s.tail, s.p50);
}

TEST(EpochLedger, CumulativeVolumesRepeatWeekly) {
  const EpochLedger ledger({3, 5, 7});
  EXPECT_EQ(ledger.cumulative(0), 3u);
  EXPECT_EQ(ledger.cumulative(2), 15u);
  EXPECT_EQ(ledger.cumulative(3), 18u);
  EXPECT_EQ(ledger.cumulative(5), 30u);
  EXPECT_EQ(ledger.hour_slice(1), 5u);
  EXPECT_EQ(ledger.hour_slice(4), 10u);  // hour 1, covered by two weeks
}

TEST(EpochLedger, MapsEveryCumulativeAnswerBackToItsEpoch) {
  const EpochLedger ledger({3, 5, 7, 1, 2});
  for (std::uint64_t e = 0; e < 40; ++e) {
    EXPECT_EQ(ledger.epoch_of(static_cast<double>(ledger.cumulative(e))), e);
  }
}

TEST(EpochLedger, RejectsAnswersOfNoEpoch) {
  const EpochLedger ledger({3, 5, 7});
  EXPECT_FALSE(ledger.epoch_of(0.0).has_value());
  EXPECT_FALSE(ledger.epoch_of(4.0).has_value());    // between epochs 0 and 1
  EXPECT_FALSE(ledger.epoch_of(8.5).has_value());    // not integral
  EXPECT_FALSE(ledger.epoch_of(-3.0).has_value());
  EXPECT_FALSE(ledger.epoch_of(1e300).has_value());  // beyond exact doubles
}

TEST(EpochLedger, EmptyHoursAreRejected) {
  EXPECT_THROW(EpochLedger({1, 0, 2}), std::invalid_argument);
  EXPECT_THROW(EpochLedger({}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
