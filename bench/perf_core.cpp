// Micro-benchmarks (google-benchmark) of the core algorithms, including the
// ablations called out in DESIGN.md:
//  - k-Shape vs k-means on the 20 weekly service series;
//  - streaming generator throughput (cells/second into the sinks);
//  - smoothed z-score peak detection.
#include <benchmark/benchmark.h>

#include <atomic>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>

#include "bench_common.hpp"
#include "core/dataset.hpp"
#include "query/engine.hpp"
#include "query/snapshot_view.hpp"
#include "la/aligned.hpp"
#include "net/event.hpp"
#include "region/merge.hpp"
#include "region/orchestrator.hpp"
#include "region/spec.hpp"
#include "obs/sampler.hpp"
#include "serve/aggregates.hpp"
#include "serve/ingest.hpp"
#include "synth/replay.hpp"
#include "la/fft_plan.hpp"
#include "la/simd.hpp"
#include "synth/generator.hpp"
#include "ts/calendar.hpp"
#include "ts/znorm.hpp"
#include "ts/kmeans.hpp"
#include "ts/kshape.hpp"
#include "ts/peaks.hpp"
#include "ts/sbd.hpp"
#include "ts/series_batch.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using namespace appscope;

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.normal();
  return out;
}

// Plan-cached transforms at the SBD working size for weekly series
// (m = 168 -> padded 512). Tracked in BENCH_core.json.
void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::FftPlan& plan = la::FftPlan::plan_for(n);
  const auto seedv = random_series(n, 5);
  std::vector<std::complex<double>> data(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) data[i] = seedv[i];
    plan.forward(data.data());
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft)->Arg(512);

void BM_RealFft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::RealFftPlan& plan = la::RealFftPlan::plan_for(n);
  const auto input = random_series(n, 6);
  std::vector<std::complex<double>> spectrum(plan.spectrum_size());
  for (auto _ : state) {
    plan.forward(input, spectrum);
    benchmark::DoNotOptimize(spectrum.data());
  }
}
BENCHMARK(BM_RealFft)->Arg(512);

void BM_SbdWeeklySeries(benchmark::State& state) {
  const auto a = random_series(168, 3);
  const auto b = random_series(168, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::sbd(a, b));
  }
}
BENCHMARK(BM_SbdWeeklySeries);

std::vector<std::vector<double>> service_like_series(std::size_t count) {
  std::vector<std::vector<double>> series;
  util::Rng rng(7);
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<double> v(168);
    const double phase = rng.uniform(0.0, 6.28);
    for (std::size_t h = 0; h < 168; ++h) {
      v[h] = 5.0 + std::sin(2.0 * M_PI * static_cast<double>(h % 24) / 24.0 + phase) +
             0.3 * rng.normal();
    }
    series.push_back(std::move(v));
  }
  return series;
}

// The acceptance benchmark for the spectral-cache fast path: full pairwise
// SBD matrix over 200 weekly series at 1 thread, including the SeriesBatch
// build (norms + one forward transform per series). Tracked in
// BENCH_core.json; CI fails on >25% regression.
void BM_SbdMatrix(benchmark::State& state) {
  util::ThreadPool::set_global_threads(1);
  const auto series = service_like_series(200);
  for (auto _ : state) {
    const ts::SeriesBatch batch(series);
    benchmark::DoNotOptimize(ts::sbd_distance_matrix(batch));
  }
  state.SetItemsProcessed(state.iterations() * 200 * 199 / 2);
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_SbdMatrix)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_KShape(benchmark::State& state) {
  const auto series = service_like_series(20);
  ts::KShapeOptions opts;
  opts.k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::kshape(series, opts));
  }
}
BENCHMARK(BM_KShape)->Arg(2)->Arg(5)->Arg(10);

void BM_KMeansBaseline(benchmark::State& state) {
  const auto series = service_like_series(20);
  ts::KMeansOptions opts;
  opts.k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::kmeans(series, opts));
  }
}
BENCHMARK(BM_KMeansBaseline)->Arg(2)->Arg(5)->Arg(10);

// Z-normalization at the weekly length and the FFT working size; exercises
// the dispatched znorm_apply kernel plus the scalar Welford pass.
void BM_Znorm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = random_series(n, 11);
  std::vector<double> out;
  for (auto _ : state) {
    ts::znormalize_into(input, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Znorm)->Arg(168)->Arg(512);

// The SBD cross-spectrum product a[i] * conj(b[i]) at the weekly spectrum
// size (257 bins for n = 512; 260 is the cache-line-padded batch pitch).
void BM_ConjMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(12);
  la::AlignedVector<std::complex<double>> a(n);
  la::AlignedVector<std::complex<double>> b(n);
  la::AlignedVector<std::complex<double>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {rng.normal(), rng.normal()};
    b[i] = {rng.normal(), rng.normal()};
  }
  const la::simd::Kernels& kernels = la::simd::active();
  for (auto _ : state) {
    kernels.conj_multiply(a.data(), b.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ConjMultiply)->Arg(257)->Arg(260);

// The snapshot checksum (io::crc32) per dispatch: slicing-by-8 for scalar,
// the PCLMULQDQ fold for avx2. 4 KiB, and 422,944 bytes (one test-scale
// seal).
void BM_Crc32(benchmark::State& state, la::simd::Dispatch dispatch) {
  if (dispatch == la::simd::Dispatch::kAvx2 && !la::simd::avx2_available()) {
    state.SkipWithError("AVX2/PCLMULQDQ kernels unavailable");
    return;
  }
  const auto crc32 = la::simd::kernels_for(dispatch).crc32;
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(14);
  std::vector<std::byte> bytes(n);
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng.next_u64() & 0xFFu);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(bytes.data(), n));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_Crc32, scalar, la::simd::Dispatch::kScalar)
    ->Arg(4096)
    ->Arg(422944);
BENCHMARK_CAPTURE(BM_Crc32, avx2, la::simd::Dispatch::kAvx2)
    ->Arg(4096)
    ->Arg(422944);

// The generator's jitter kernel per dispatch, on the 168-value rows
// AnalyticGenerator fills once per (commune, usable service), at the
// example scenario's sigma.
void BM_LognormalPhilox(benchmark::State& state, la::simd::Dispatch dispatch) {
  if (dispatch == la::simd::Dispatch::kAvx2 && !la::simd::avx2_available()) {
    state.SkipWithError("AVX2/PCLMULQDQ kernels unavailable");
    return;
  }
  const auto kernel = la::simd::kernels_for(dispatch).lognormal_philox;
  constexpr double kSigma = 0.05;
  la::AlignedVector<double> row(ts::kHoursPerWeek);
  std::uint32_t commune = 0;
  for (auto _ : state) {
    kernel(0x243f6a88u, 0x85a308d3u, 3, commune++, 0, -0.5 * kSigma * kSigma,
           kSigma, row.data(), row.size());
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(row.size()));
}
BENCHMARK_CAPTURE(BM_LognormalPhilox, scalar, la::simd::Dispatch::kScalar);
BENCHMARK_CAPTURE(BM_LognormalPhilox, avx2, la::simd::Dispatch::kAvx2);

// False-sharing microbench: every thread hammers its own counter slot. In
// the packed layout eight slots share a cache line, so the increments
// ping-pong the line between cores; the padded layout gives each slot a
// full line — the policy applied to the per-thread metric and trace shards.
struct PackedCounterSlot {
  std::atomic<std::uint64_t> value{0};
};
struct alignas(64) PaddedCounterSlot {
  std::atomic<std::uint64_t> value{0};
};
PackedCounterSlot g_packed_counters[64];
PaddedCounterSlot g_padded_counters[64];

void BM_StripedCountersPacked(benchmark::State& state) {
  std::atomic<std::uint64_t>& slot =
      g_packed_counters[state.thread_index()].value;
  for (auto _ : state) {
    slot.fetch_add(1, std::memory_order_relaxed);
  }
}
BENCHMARK(BM_StripedCountersPacked)->Threads(1)->Threads(2)->Threads(8);

void BM_StripedCountersPadded(benchmark::State& state) {
  std::atomic<std::uint64_t>& slot =
      g_padded_counters[state.thread_index()].value;
  for (auto _ : state) {
    slot.fetch_add(1, std::memory_order_relaxed);
  }
}
BENCHMARK(BM_StripedCountersPadded)->Threads(1)->Threads(2)->Threads(8);

void BM_PeakDetection(benchmark::State& state) {
  // Offset to a strictly positive level: the default options detrend by a
  // moving-median baseline, which requires a positive series.
  auto series = random_series(168, 9);
  for (double& v : series) v += 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::detect_peaks(series, {}));
  }
}
BENCHMARK(BM_PeakDetection);

// Ablation: streaming sinks vs a materialized (service x commune x hour)
// tensor. The tensor variant measures what the sink architecture avoids:
// 20 x C x 168 doubles of working set plus a second aggregation pass.
void BM_MaterializedTensorAggregation(benchmark::State& state) {
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = static_cast<std::size_t>(state.range(0));
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);

  // A sink that materializes the full tensor, then aggregates from it.
  class TensorSink final : public synth::TrafficSink {
   public:
    TensorSink(std::size_t services, std::size_t communes)
        : communes_(communes), data_(services * communes * 168, 0.0) {}
    void consume_row(const synth::TrafficRow& row) override {
      double* week = &data_[(row.service * communes_ + row.commune) * 168];
      for (std::size_t h = 0; h < 168; ++h) week[h] += row.downlink_bytes[h];
    }
    double aggregate_total() const {
      double total = 0.0;
      for (const double v : data_) total += v;
      return total;
    }

   private:
    std::size_t communes_;
    std::vector<double> data_;
  };

  for (auto _ : state) {
    TensorSink tensor(catalog.size(), territory.size());
    gen.generate(tensor);
    benchmark::DoNotOptimize(tensor.aggregate_total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.country.commune_count) *
                          20 * 168);
}
BENCHMARK(BM_MaterializedTensorAggregation)
    ->Arg(400)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_AnalyticGenerator(benchmark::State& state) {
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = static_cast<std::size_t>(state.range(0));
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);
  for (auto _ : state) {
    synth::AggregateSink sink(catalog.size(), territory.size());
    gen.generate(sink);
    benchmark::DoNotOptimize(sink.tables().downlink_total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.country.commune_count) *
                          20 * 168);
}
BENCHMARK(BM_AnalyticGenerator)->Arg(400)->Arg(1000)->Unit(benchmark::kMillisecond);

// Thread scaling of the parallel stages (see "Threading model &
// determinism" in DESIGN.md). Outputs are bitwise identical at every
// thread count; only wall-clock changes, so these use real time.

void BM_AnalyticGeneratorThreads(benchmark::State& state) {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = 2000;
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);
  for (auto _ : state) {
    synth::AggregateSink sink(catalog.size(), territory.size());
    gen.generate(sink);
    benchmark::DoNotOptimize(sink.tables().downlink_total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.country.commune_count) *
                          20 * 168);
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_AnalyticGeneratorThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SbdDistanceMatrixThreads(benchmark::State& state) {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  const auto series = service_like_series(200);
  for (auto _ : state) {
    const ts::SeriesBatch batch(series);
    benchmark::DoNotOptimize(ts::sbd_distance_matrix(batch));
  }
  state.SetItemsProcessed(state.iterations() * 200 * 199 / 2);
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_SbdDistanceMatrixThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_KShapeThreads(benchmark::State& state) {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  const auto series = service_like_series(120);
  ts::KShapeOptions opts;
  opts.k = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::kshape(series, opts));
  }
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_KShapeThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Snapshot store (src/io): the cost of a full analytic generation vs
// saving/loading the binary snapshot of the same dataset, at example scale
// on one thread. The load path is the acceptance metric of the snapshot
// subsystem: it must beat regeneration by >= 20x (tracked in
// BENCH_core.json).

std::string snapshot_bench_path() {
  return (std::filesystem::temp_directory_path() / "appscope_bench.snapshot")
      .string();
}

void BM_DatasetGenerate(benchmark::State& state) {
  util::ThreadPool::set_global_threads(1);
  const auto config = synth::ScenarioConfig::example_scale();
  for (auto _ : state) {
    const core::TrafficDataset dataset = core::TrafficDataset::generate(config);
    benchmark::DoNotOptimize(dataset.direction_total(workload::Direction::kDownlink));
  }
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_DatasetGenerate)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SnapshotSave(benchmark::State& state) {
  util::ThreadPool::set_global_threads(1);
  const auto config = synth::ScenarioConfig::example_scale();
  const core::TrafficDataset dataset = core::TrafficDataset::generate(config);
  const std::string path = snapshot_bench_path();
  for (auto _ : state) {
    dataset.save(path);
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SnapshotLoad(benchmark::State& state) {
  util::ThreadPool::set_global_threads(1);
  const auto config = synth::ScenarioConfig::example_scale();
  core::TrafficDataset::generate(config).save(snapshot_bench_path());
  const std::string path = snapshot_bench_path();
  for (auto _ : state) {
    const core::TrafficDataset dataset = core::TrafficDataset::load(path);
    benchmark::DoNotOptimize(dataset.direction_total(workload::Direction::kDownlink));
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMillisecond)->UseRealTime();

// Query engine (src/query): interactive slice/aggregate latency over the
// snapshot store. BM_QueryHourSlice is the acceptance benchmark of the
// subsystem — a warm hour-window x all-services slice must answer in well
// under a millisecond (tracked in BENCH_core.json). The engines run with
// the cache disabled so the scan itself is measured, not the cache hit.

std::string query_bench_snapshot() {
  static const std::string path = [] {
    const std::string p = (std::filesystem::temp_directory_path() /
                           "appscope_bench_query.snapshot")
                              .string();
    core::TrafficDataset::generate(synth::ScenarioConfig::example_scale())
        .save(p);
    return p;
  }();
  return path;
}

void BM_QueryHourSlice(benchmark::State& state) {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  const query::SnapshotView view(query_bench_snapshot());
  query::Engine engine({.cache_capacity = 0});
  query::Slice slice;  // evening busy window x all services, downlink
  slice.hour_begin = 18;
  slice.hour_end = 22;
  // Warm: CRC the national section once, outside the timer.
  benchmark::DoNotOptimize(engine.run(view, slice).value);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(view, slice).value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(view.services()) * 4);
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_QueryHourSlice)->Arg(1)->Arg(8)->UseRealTime();

void BM_QueryCommuneFingerprint(benchmark::State& state) {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  const query::SnapshotView view(query_bench_snapshot());
  query::Engine engine({.cache_capacity = 0});
  query::Slice slice;  // the paper's spatial fingerprint: per-commune totals
  slice.source = query::Source::kCommuneTotals;
  slice.group_by = query::GroupBy::kCommune;
  benchmark::DoNotOptimize(engine.run(view, slice).groups.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(view, slice).groups.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(view.services() *
                                                    view.communes()));
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_QueryCommuneFingerprint)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime();

void BM_SnapshotLazyLoad(benchmark::State& state) {
  // Open and answer one hour-slice: only the header window plus the
  // national section are read and CRC-checked — strictly fewer bytes than
  // the full load above. The read/file byte counts are exported as
  // counters (and io.snapshot.mapped_bytes in the metrics artifact).
  util::ThreadPool::set_global_threads(1);
  const std::string path = query_bench_snapshot();
  std::uint64_t mapped = 0;
  std::uint64_t file_bytes = 0;
  for (auto _ : state) {
    const query::SnapshotView view(path);
    query::Engine engine({.cache_capacity = 0});
    query::Slice slice;
    slice.hour_begin = 18;
    slice.hour_end = 22;
    benchmark::DoNotOptimize(engine.run(view, slice).value);
    mapped = view.mapped_bytes();
    file_bytes = view.file_bytes();
  }
  if (mapped >= file_bytes) {
    state.SkipWithError("a one-slice query read the whole file");
  }
  state.counters["mapped_bytes"] =
      benchmark::Counter(static_cast<double>(mapped));
  state.counters["file_bytes"] =
      benchmark::Counter(static_cast<double>(file_bytes));
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_SnapshotLazyLoad)->UseRealTime();

// Tracing overhead (see "Structured tracing" in DESIGN.md). The disabled
// path is the acceptance benchmark of the zero-cost contract: a ScopedSpan
// constructed while metrics are off must not allocate or read a clock, so
// its cost is one predicted branch (~1 ns). The enabled variant measures
// the full record path (two clock reads + per-thread shard append).
void BM_ScopedSpanDisabled(benchmark::State& state) {
  const bool was_enabled = util::MetricsRegistry::enabled();
  util::MetricsRegistry::set_enabled(false);
  for (auto _ : state) {
    const util::ScopedSpan span("bench.span.disabled");
    benchmark::DoNotOptimize(span.span_id());
  }
  util::MetricsRegistry::set_enabled(was_enabled);
}
BENCHMARK(BM_ScopedSpanDisabled);

void BM_ScopedSpanEnabled(benchmark::State& state) {
  const bool was_enabled = util::MetricsRegistry::enabled();
  util::MetricsRegistry::set_enabled(true);
  util::TraceRecorder::global().reset();
  std::size_t recorded = 0;
  for (auto _ : state) {
    // Stay well under the per-thread buffer cap so no iteration hits the
    // (cheaper) dropping path; the reset outside the timer is not measured.
    if (++recorded >= util::TraceRecorder::kMaxEventsPerThread / 2) {
      state.PauseTiming();
      util::TraceRecorder::global().reset();
      recorded = 0;
      state.ResumeTiming();
    }
    const util::ScopedSpan span("bench.span.enabled");
    benchmark::DoNotOptimize(span.span_id());
  }
  util::TraceRecorder::global().reset();
  util::MetricsRegistry::set_enabled(was_enabled);
}
BENCHMARK(BM_ScopedSpanEnabled);

// Streaming ingest throughput (src/serve): route one staged synthetic week
// through the sharded lock-free ingest plane and collect the epoch. This is
// the acceptance benchmark of the appscope_serve daemon — it must sustain
// >= 2M events/sec single-box (tracked in BENCH_core.json; CI fails on >25%
// regression).
void BM_IngestEvents(benchmark::State& state) {
  const auto config = synth::ScenarioConfig::test_scale();
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::EventReplaySource replay(territory, subscribers, catalog,
                                        config);
  const auto shards = static_cast<std::size_t>(state.range(0));
  serve::ShardedIngest ingest(catalog.size(), territory.size(),
                              {shards, 1 << 16});
  serve::EventAggregates rolling(catalog.size(), territory.size());
  for (auto _ : state) {
    for (std::size_t hour = 0; hour < ts::kHoursPerWeek; ++hour) {
      for (const net::ServiceEvent& event : replay.hour_events(hour)) {
        ingest.route(event, 1);
      }
    }
    ingest.collect_epoch(rolling);
    benchmark::DoNotOptimize(rolling.events());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(replay.week_event_count()));
  ingest.stop();
}
BENCHMARK(BM_IngestEvents)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same route+collect loop with the full observation stack attached: metrics
// gate on and a background MetricsSampler ticking at the production default
// (1 s). The delta against BM_IngestEvents at the same shard count is the
// steady-state cost of live telemetry on the hot path — measured below the
// 1-3% run-to-run CV at 4 shards, i.e. statistically indistinguishable
// from the unsampled baseline (numbers in EXPERIMENTS.md).
void BM_IngestEventsSampled(benchmark::State& state) {
  const bool was_enabled = util::MetricsRegistry::enabled();
  util::MetricsRegistry::set_enabled(true);
  util::MetricsRegistry::global().reset();
  obs::MetricsSampler sampler({std::chrono::seconds(1)});
  sampler.start();

  const auto config = synth::ScenarioConfig::test_scale();
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::EventReplaySource replay(territory, subscribers, catalog,
                                        config);
  const auto shards = static_cast<std::size_t>(state.range(0));
  serve::ShardedIngest ingest(catalog.size(), territory.size(),
                              {shards, 1 << 16});
  serve::EventAggregates rolling(catalog.size(), territory.size());
  for (auto _ : state) {
    for (std::size_t hour = 0; hour < ts::kHoursPerWeek; ++hour) {
      for (const net::ServiceEvent& event : replay.hour_events(hour)) {
        ingest.route(event, 1);
      }
    }
    ingest.collect_epoch(rolling);
    benchmark::DoNotOptimize(rolling.events());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(replay.week_event_count()));
  ingest.stop();

  sampler.stop();
  util::MetricsRegistry::global().reset();
  util::MetricsRegistry::set_enabled(was_enabled);
}
BENCHMARK(BM_IngestEventsSampled)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Multi-region scale-out (src/region): the two ends of the campaign flow.
// BM_RegionOrchestrate measures the warm path — re-running a 20-region
// campaign over already-published snapshots (header hash check per region,
// no decode). This is the acceptance metric of snapshot reuse: the warm run
// must cost less than regenerating any single region (tracked in
// BENCH_core.json). BM_RegionMerge measures combining 4 per-region
// snapshots into the national view, end to end (parallel load, canonical
// accumulation, atomic publish).

std::string region_bench_root(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void BM_RegionOrchestrate(benchmark::State& state) {
  const std::string root = region_bench_root("appscope_bench_region20");
  std::filesystem::remove_all(root);
  const region::RegionSet set =
      region::RegionSet::metro_areas(20, region::RegionScale::kTiny);
  region::OrchestratorOptions options;
  options.root = root;
  region::orchestrate(set, options);  // cold publish, outside the timer
  for (auto _ : state) {
    const region::OrchestrationReport report = region::orchestrate(set, options);
    benchmark::DoNotOptimize(report.reused_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(set.size()));
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_RegionOrchestrate)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RegionMerge(benchmark::State& state) {
  const std::string root = region_bench_root("appscope_bench_region_merge");
  std::filesystem::remove_all(root);
  region::OrchestratorOptions options;
  options.root = root;
  const region::OrchestrationReport report = region::orchestrate(
      region::RegionSet::metro_areas(4, region::RegionScale::kTest), options);
  const std::vector<std::string> paths = report.snapshot_paths();
  const std::string out = root + "/national.snapshot";
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const region::MergeStats stats = region::merge_region_snapshots(paths, out);
    bytes = stats.bytes;
    benchmark::DoNotOptimize(stats.communes);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_RegionMerge)->Unit(benchmark::kMillisecond)->UseRealTime();

// Concurrent-reader scaling: N benchmark threads share one SnapshotView and
// one Engine and issue the hour-slice query independently. The pool is
// pinned to one thread (scans run inline on each reader, no shared-pool
// contention), so flat per-query latency as threads grow means linear
// aggregate throughput — the EXPERIMENTS.md scaling table. Registered last:
// the pool stays at one thread for the rest of the process.
void BM_QueryConcurrentReaders(benchmark::State& state) {
  static std::once_flag once;
  std::call_once(once, [] { util::ThreadPool::set_global_threads(1); });
  static const query::SnapshotView view(query_bench_snapshot());
  static query::Engine engine({.cache_capacity = 0});
  query::Slice slice;
  slice.hour_begin = 18;
  slice.hour_end = 22;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(view, slice).value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryConcurrentReaders)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Console reporter that also collects per-benchmark real time (normalized
// to nanoseconds, independent of each benchmark's display unit) for the
// BENCH_core.json baseline.
class BaselineReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      if (run.iterations == 0) continue;
      real_time_ns_[run.benchmark_name()] =
          run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, double>& real_time_ns() const {
    return real_time_ns_;
  }

 private:
  std::map<std::string, double> real_time_ns_;
};

}  // namespace

// Expanded BENCHMARK_MAIN() with the observability hooks: when
// APPSCOPE_METRICS=1, the per-stage timers recorded while the benchmarks ran
// are exported to metrics.json (or APPSCOPE_METRICS_PATH) at exit; when
// APPSCOPE_BENCH_JSON=<path> is set, the normalized real-time baseline is
// written there (schema appscope.bench/1) — this is how the committed
// BENCH_core.json is produced and how CI snapshots a run to compare
// against it (scripts/bench_regression.py).
int main(int argc, char** argv) {
  appscope::util::write_metrics_at_exit();
  // google-benchmark rejects unknown flags, so the trace export here is
  // driven by APPSCOPE_TRACE=<path> only (no --trace= alias).
  appscope::util::enable_trace_export();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Pin the measured kernel implementation in the run's outputs: once on
  // stderr for the human log, and as la.simd.dispatch.<name> in the metrics
  // artifact (when APPSCOPE_METRICS=1) so bench-smoke archives it.
  std::fprintf(stderr, "la::simd dispatch: %s\n",
               appscope::la::simd::active_name());
  appscope::la::simd::record_dispatch_metric();
  BaselineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (const char* path = std::getenv("APPSCOPE_BENCH_JSON");
      path != nullptr && *path != '\0') {
    appscope::bench::write_bench_baseline(path, reporter.real_time_ns());
  }
  benchmark::Shutdown();
  return 0;
}
