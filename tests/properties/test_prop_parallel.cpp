// Determinism property: every parallelized pipeline stage produces output
// bitwise identical to its single-threaded run, at any thread count. This
// is the contract that lets the nationwide pipeline use all cores without
// giving up the seeded reproducibility the repo is built on (fixed chunk
// decomposition + ordered merges; see util/parallel.hpp).
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "core/temporal_analysis.hpp"
#include "stats/bootstrap.hpp"
#include "stats/correlation.hpp"
#include "support/cell_fold.hpp"
#include "support/metrics_on.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "synth/sinks.hpp"
#include "ts/hierarchical.hpp"
#include "ts/kshape.hpp"
#include "ts/sbd.hpp"
#include "ts/series_batch.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace appscope {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::vector<std::vector<double>> noisy_weekly_series(std::size_t count,
                                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> series;
  series.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<double> v(168);
    const double phase = rng.uniform(0.0, 6.28);
    for (std::size_t h = 0; h < v.size(); ++h) {
      v[h] = 5.0 +
             std::sin(2.0 * M_PI * static_cast<double>(h % 24) / 24.0 + phase) +
             0.3 * rng.normal();
    }
    series.push_back(std::move(v));
  }
  return series;
}

/// Runs `fn` once per thread count and checks all results compare equal
/// (operator== on vectors of doubles is elementwise bitwise here — the
/// pipelines never produce NaNs).
template <typename Fn>
void expect_identical_across_thread_counts(Fn&& fn) {
  using Result = decltype(fn());
  ASSERT_GT(std::size(kThreadCounts), 0u);
  util::ThreadPool::set_global_threads(kThreadCounts[0]);
  const Result reference = fn();
  for (std::size_t t = 1; t < std::size(kThreadCounts); ++t) {
    util::ThreadPool::set_global_threads(kThreadCounts[t]);
    const Result got = fn();
    EXPECT_TRUE(got == reference)
        << "output differs at " << kThreadCounts[t] << " threads";
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(ParallelDeterminism, AnalyticGeneratorIsBitwiseIdentical) {
  const auto config = synth::ScenarioConfig::test_scale();
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);

  expect_identical_across_thread_counts([&] {
    synth::AggregateSink sink(catalog.size(), territory.size());
    gen.generate(sink);
    test_support::RowRecorder rows;
    gen.generate(rows);

    // Flatten everything the sinks observed, including the raw row
    // stream order.
    std::vector<double> flat;
    for (std::size_t s = 0; s < catalog.size(); ++s) {
      for (const auto d :
           {workload::Direction::kDownlink, workload::Direction::kUplink}) {
        const auto series = sink.tables().national_row(s, d);
        flat.insert(flat.end(), series.begin(), series.end());
        const auto totals = sink.tables().commune_row(s, d);
        flat.insert(flat.end(), totals.begin(), totals.end());
      }
    }
    for (const test_support::RecordedRow& row : rows.rows()) {
      flat.push_back(static_cast<double>(row.service));
      flat.push_back(static_cast<double>(row.commune));
      flat.push_back(static_cast<double>(row.urbanization));
      flat.insert(flat.end(), row.downlink_bytes.begin(),
                  row.downlink_bytes.end());
      flat.insert(flat.end(), row.uplink_bytes.begin(), row.uplink_bytes.end());
    }
    return flat;
  });
}

TEST(ParallelDeterminism, GeneratorRowStreamUnderRunAhead) {
  // The shard at the fold frontier feeds the sink directly; shards that run
  // ahead of it are staged and replayed when the frontier reaches them.
  // Whichever way each shard goes, in whatever interleaving the pool
  // produces, the sink must see the 1-thread row stream row for row.
  const auto config = synth::ScenarioConfig::test_scale();
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);
  const test_support::MetricsOn metrics;
  const auto staged_shards = [] {
    return test_support::counter_value("synth.generate.staged_shards");
  };

  util::ThreadPool::set_global_threads(1);
  test_support::RowRecorder reference;
  gen.generate(reference);
  ASSERT_FALSE(reference.rows().empty());
  EXPECT_EQ(staged_shards(), 0u);

  std::uint64_t staged_at_four_or_more = 0;
  for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    for (int rep = 0; rep < 20; ++rep) {
      const std::uint64_t before = staged_shards();
      test_support::RowRecorder rows;
      gen.generate(rows);
      ASSERT_TRUE(rows.rows() == reference.rows())
          << threads << " threads, repetition " << rep;
      if (threads >= 4) staged_at_four_or_more += staged_shards() - before;
    }
  }
  util::ThreadPool::set_global_threads(0);
  EXPECT_GT(staged_at_four_or_more, 0u);
}

TEST(ParallelDeterminism, GeneratorBoundsRunAheadBehindASlowSink) {
  // Behind a sink slower than generation, shards that run ahead of the
  // frontier wait for a spare staging buffer once the fold has made two per
  // pool thread, instead of each taking a new one. 1,200 communes make 38
  // shards, more than the 16 buffers an 8-thread pool may make. The slow
  // sink still sees the 1-thread row stream.
  class SlowRecorder final : public synth::TrafficSink {
   public:
    void consume_row(const synth::TrafficRow& row) override {
      if (rows_.rows().size() % 256 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      rows_.consume_row(row);
    }
    const std::vector<test_support::RecordedRow>& rows() const noexcept {
      return rows_.rows();
    }

   private:
    test_support::RowRecorder rows_;
  };
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = 1'200;
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);
  const test_support::MetricsOn metrics;
  const auto buffers_made = [] {
    return test_support::counter_value("synth.generate.staging_buffers");
  };

  util::ThreadPool::set_global_threads(1);
  test_support::RowRecorder reference;
  gen.generate(reference);
  EXPECT_EQ(buffers_made(), 0u);

  for (const std::size_t threads : {2u, 3u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    const std::uint64_t before = buffers_made();
    SlowRecorder rows;
    gen.generate(rows);
    EXPECT_TRUE(rows.rows() == reference.rows()) << threads << " threads";
    EXPECT_LE(buffers_made() - before, 2 * threads) << threads << " threads";
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(ParallelDeterminism, GeneratorStopsFeedingAFailedSink) {
  // A sink that throws on one row ends the fold: generate rethrows that
  // failure at every thread count, and no later row, direct or replayed,
  // reaches the sink. Row 5000 falls in the middle of the 13 shards; the
  // shards after it still run but drop their rows instead of staging them,
  // so at 1 thread none is staged.
  class FailingSink final : public synth::TrafficSink {
   public:
    explicit FailingSink(std::size_t fail_at) : fail_at_(fail_at) {}
    void consume_row(const synth::TrafficRow&) override {
      if (++rows_ == fail_at_) throw std::runtime_error("sink full");
    }
    std::size_t rows() const noexcept { return rows_; }

   private:
    std::size_t fail_at_;
    std::size_t rows_ = 0;
  };
  constexpr std::size_t kFailAt = 5000;
  const auto config = synth::ScenarioConfig::test_scale();
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const test_support::MetricsOn metrics;
    util::ThreadPool::set_global_threads(threads);
    FailingSink sink(kFailAt);
    EXPECT_THROW(gen.generate(sink), std::runtime_error) << threads;
    EXPECT_EQ(sink.rows(), kFailAt) << threads << " threads";
    if (threads == 1) {
      EXPECT_EQ(test_support::counter_value("synth.generate.staged_shards"), 0u);
    }
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(ParallelDeterminism, KShapeIsBitwiseIdentical) {
  const auto series = noisy_weekly_series(40, 11);
  ts::KShapeOptions opts;
  opts.k = 5;

  expect_identical_across_thread_counts([&] {
    const ts::KShapeResult result = ts::kshape(series, opts);
    std::vector<double> flat;
    for (const std::size_t a : result.assignments) {
      flat.push_back(static_cast<double>(a));
    }
    for (const auto& centroid : result.centroids) {
      flat.insert(flat.end(), centroid.begin(), centroid.end());
    }
    flat.push_back(result.inertia);
    flat.push_back(static_cast<double>(result.iterations));
    return flat;
  });
}

TEST(ParallelDeterminism, ClusterSweepIsBitwiseIdentical) {
  // The Fig. 5 sweep runs one pool task per k, with the pool calls inside
  // k-Shape and SeriesBatch inline on that task's thread.
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = 50;
  config.country.metro_count = 2;
  const core::TrafficDataset dataset = core::TrafficDataset::generate(config);
  core::ClusterSweepOptions opts;
  opts.include_kmeans_baseline = true;

  expect_identical_across_thread_counts([&] {
    std::vector<double> flat;
    const auto append = [&flat](const ts::QualityIndices& q) {
      flat.insert(flat.end(), {q.davies_bouldin, q.davies_bouldin_star,
                               q.dunn, q.silhouette});
    };
    for (const auto d :
         {workload::Direction::kDownlink, workload::Direction::kUplink}) {
      const core::ClusterSweepReport report =
          core::cluster_sweep(dataset, d, opts);
      EXPECT_EQ(report.rows.size(), opts.k_max - opts.k_min + 1);
      for (const core::ClusterQualityRow& row : report.rows) {
        flat.push_back(static_cast<double>(row.k));
        append(row.kshape);
        EXPECT_TRUE(row.kmeans.has_value()) << "k=" << row.k;
        if (row.kmeans) append(*row.kmeans);
      }
    }
    return flat;
  });
}

TEST(ParallelDeterminism, StudyIsBitwiseIdentical) {
  // run_study is one pool batch of concurrent analyses, each writing its
  // own report field. Full-precision fields are compared as bit patterns,
  // not only the rounded Markdown.
  const core::TrafficDataset dataset =
      core::TrafficDataset::generate(synth::ScenarioConfig::test_scale());
  expect_identical_across_thread_counts([&] {
    const core::StudyReport report = core::run_study(dataset);
    std::vector<std::uint64_t> bits;
    const auto append = [&bits](double v) {
      bits.push_back(std::bit_cast<std::uint64_t>(v));
    };
    for (const auto& corr : report.correlation) {
      for (const double v : corr.r2.data()) append(v);
      for (const double v : corr.service_mean_r2) append(v);
    }
    for (const auto& sweep : report.clustering) {
      EXPECT_EQ(sweep.rows.size(), 18u);
      for (const core::ClusterQualityRow& row : sweep.rows) {
        bits.push_back(row.k);
        for (const double v :
             {row.kshape.davies_bouldin, row.kshape.davies_bouldin_star,
              row.kshape.dunn, row.kshape.silhouette}) {
          append(v);
        }
      }
    }
    for (const auto& service : report.peaks.services) {
      for (const ts::PeakInterval& interval : service.detection.intervals) {
        bits.insert(bits.end(), {interval.begin, interval.end});
      }
    }
    for (const double v : report.concentration.per_user_quantiles) append(v);
    for (const auto& service : report.urbanization.services) {
      for (const double v : service.volume_ratio) append(v);
    }
    std::ostringstream markdown;
    core::write_markdown_report(report, dataset, markdown);
    return std::make_pair(bits, markdown.str());
  });
}

TEST(ParallelDeterminism, PairwiseR2IsBitwiseIdentical) {
  const auto vectors = noisy_weekly_series(30, 23);
  expect_identical_across_thread_counts([&] {
    const la::Matrix m = stats::pairwise_r2(vectors);
    return std::vector<double>(m.data().begin(), m.data().end());
  });
}

TEST(ParallelDeterminism, SbdDistanceMatrixIsBitwiseIdentical) {
  const auto series = noisy_weekly_series(25, 37);
  expect_identical_across_thread_counts([&] {
    const ts::SeriesBatch batch(series);
    return ts::sbd_distance_matrix(batch).cells();
  });
}

TEST(ParallelDeterminism, HierarchicalClusteringIsBitwiseIdentical) {
  const auto series = noisy_weekly_series(20, 41);
  expect_identical_across_thread_counts([&] {
    const ts::Dendrogram dendrogram = ts::hierarchical_cluster(
        ts::sbd_distance_matrix(ts::SeriesBatch(series)),
        ts::Linkage::kAverage);
    std::vector<double> flat;
    for (const auto& m : dendrogram.merges) {
      flat.push_back(static_cast<double>(m.left));
      flat.push_back(static_cast<double>(m.right));
      flat.push_back(m.distance);
    }
    return flat;
  });
}

TEST(ParallelDeterminism, BootstrapIsThreadCountInvariant) {
  util::Rng rng(3);
  std::vector<double> sample(300);
  for (double& v : sample) v = rng.lognormal(0.0, 0.5);
  expect_identical_across_thread_counts([&] {
    const stats::BootstrapCi ci = stats::bootstrap_mean_ci(sample, 500, 0.05, 9);
    return std::vector<double>{ci.point, ci.lower, ci.upper};
  });
}

}  // namespace
}  // namespace appscope
