// Statistics helpers of the benchmark harness: nearest-rank percentiles,
// the "highest percentile with at least ten samples beyond it" tail rule,
// and the follow workload's answer-to-epoch ledger.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least p
/// percent of the samples are <= it, i.e. sorted[ceil(p * n / 100) - 1].
/// p is an integer percent in [1, 100]. Requires a non-empty input.
double nearest_rank(std::vector<double> samples, int p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, int p);

/// The highest integer percentile in [50, 99] whose nearest-rank position
/// leaves at least `min_beyond` samples beyond it; nullopt when even the
/// median does not (fewer than 2 * min_beyond samples).
std::optional<int> tail_percentile(std::size_t n, std::size_t min_beyond = 10);

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  /// Percentile the tail reports: tail_percentile(n), or 50 when n is too
  /// small for any percentile to have ten samples beyond it.
  int tail_pct = 50;
  double tail = 0.0;
};

/// p50 plus the tail under the ten-beyond rule. Requires a non-empty input.
Summary summarize(const std::vector<double>& samples);

double median(const std::vector<double>& samples);

/// Cumulative downlink volume after every hourly epoch of a replayed week
/// (repeated week after week), and the inverse map from an observed total
/// back to the one epoch that produced it. Volumes are integral byte counts
/// below 2^53, so every sum over them is exact in double arithmetic and a
/// query answer equals its epoch's cumulative volume bit for bit.
class EpochLedger {
 public:
  /// `hour_volume[h]` is the downlink bytes staged for week hour h (168
  /// entries, each > 0 so cumulative volumes strictly increase).
  explicit EpochLedger(std::vector<std::uint64_t> hour_volume);

  std::size_t hours_per_week() const noexcept { return hour_volume_.size(); }

  /// Total downlink volume once epoch `e` (0-based, hourly) is sealed.
  std::uint64_t cumulative(std::uint64_t epoch) const noexcept;

  /// Value of the one-hour slice over epoch e's week hour once e is sealed:
  /// that hour's volume times the weeks that have covered it so far.
  std::uint64_t hour_slice(std::uint64_t epoch) const noexcept;

  /// The unique epoch whose cumulative volume equals `answer`, or nullopt
  /// when none does (including non-integral or out-of-range answers).
  std::optional<std::uint64_t> epoch_of(double answer) const;

 private:
  std::vector<std::uint64_t> hour_volume_;
  /// prefix_[i] = sum of hour_volume_[0, i); prefix_.back() = week total.
  std::vector<std::uint64_t> prefix_;
};

}  // namespace perfbench
