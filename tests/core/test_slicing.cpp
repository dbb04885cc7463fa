#include "core/slicing.hpp"

#include <gtest/gtest.h>

#include "query/snapshot_view.hpp"
#include "support/temp_dir.hpp"
#include "util/error.hpp"

namespace appscope::core {
namespace {

const TrafficDataset& dataset() {
  static const TrafficDataset d =
      TrafficDataset::generate(synth::ScenarioConfig::test_scale());
  return d;
}

/// The dataset's snapshot, read through the query layer.
const query::SnapshotView& view() {
  static const std::string path = [] {
    const std::string p = test_support::temp_path("slicing.snapshot").string();
    dataset().save(p);
    return p;
  }();
  static const query::SnapshotView v(path);
  return v;
}

TEST(Slicing, CapacitiesOrderedAndPositive) {
  const SlicingReport report =
      analyze_slicing(dataset(), workload::Direction::kDownlink);
  ASSERT_EQ(report.slices.size(), 20u);
  EXPECT_GT(report.dynamic_capacity, 0.0);
  EXPECT_GE(report.static_capacity, report.dynamic_capacity);
  EXPECT_LT(report.busy_hour, ts::kHoursPerWeek);
}

TEST(Slicing, MultiplexingGainExistsBecauseOfHeterogeneity) {
  // The paper's point: services peak at different times, so hourly
  // reallocation saves real capacity.
  const SlicingReport report =
      analyze_slicing(dataset(), workload::Direction::kDownlink);
  EXPECT_GT(report.multiplexing_gain(), 0.05);
  EXPECT_LT(report.multiplexing_gain(), 0.9);
}

TEST(Slicing, PerSliceNumbersConsistent) {
  const SlicingReport report =
      analyze_slicing(dataset(), workload::Direction::kDownlink);
  double static_sum = 0.0;
  for (const auto& slice : report.slices) {
    EXPECT_GE(slice.peak, slice.mean) << slice.name;
    EXPECT_GT(slice.mean, 0.0) << slice.name;
    EXPECT_LT(slice.peak_hour, ts::kHoursPerWeek);
    EXPECT_GT(slice.peak_to_mean(), 1.0) << slice.name;
    static_sum += slice.peak;
    // The slice's peak matches the national series at the peak hour.
    EXPECT_DOUBLE_EQ(slice.peak,
                     dataset().national_series(
                         slice.service, workload::Direction::kDownlink)
                         [slice.peak_hour]);
  }
  EXPECT_NEAR(static_sum, report.static_capacity, 1e-6 * static_sum);
}

TEST(Slicing, BusyHourIsDaytime) {
  const SlicingReport report =
      analyze_slicing(dataset(), workload::Direction::kDownlink);
  const std::size_t hod = report.busy_hour % 24;
  EXPECT_GE(hod, 8u);
  EXPECT_LE(hod, 22u);
}

TEST(Slicing, UplinkDirectionWorks) {
  const SlicingReport report =
      analyze_slicing(dataset(), workload::Direction::kUplink);
  EXPECT_GT(report.multiplexing_gain(), 0.0);
}

TEST(PeakCooccurrence, DiagonalOneAndSymmetric) {
  const la::Matrix m =
      peak_cooccurrence(view(), workload::Direction::kDownlink);
  ASSERT_EQ(m.rows(), 20u);
  EXPECT_TRUE(m.is_symmetric());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    EXPECT_DOUBLE_EQ(m(i, i), 1.0);
    for (std::size_t j = 0; j < m.cols(); ++j) {
      EXPECT_TRUE(m(i, j) == 0.0 || m(i, j) == 1.0);
    }
  }
}

TEST(PeakCooccurrence, NotAllServicesPeakTogether) {
  // Temporal complementarity: at a tight threshold, a meaningful share of
  // service pairs never hit their peaks in the same hour.
  const la::Matrix m =
      peak_cooccurrence(view(), workload::Direction::kDownlink, 0.95);
  std::size_t apart = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = i + 1; j < m.cols(); ++j) {
      ++pairs;
      apart += m(i, j) == 0.0 ? 1 : 0;
    }
  }
  EXPECT_GT(static_cast<double>(apart) / static_cast<double>(pairs), 0.2);
}

TEST(PeakCooccurrence, ThresholdValidation) {
  EXPECT_THROW(peak_cooccurrence(view(), workload::Direction::kDownlink, 0.0),
               util::PreconditionError);
  EXPECT_THROW(peak_cooccurrence(view(), workload::Direction::kDownlink, 1.5),
               util::PreconditionError);
}

}  // namespace
}  // namespace appscope::core
