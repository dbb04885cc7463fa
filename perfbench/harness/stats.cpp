#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {
std::size_t rank_of(std::size_t n, int p) {
  // ceil(p * n / 100) in integers, clamped to [1, n].
  const std::size_t r = (static_cast<std::size_t>(p) * n + 99) / 100;
  return std::clamp<std::size_t>(r, 1, n);
}
}  // namespace

double nearest_rank(std::vector<double> samples, int p) {
  if (samples.empty()) throw std::invalid_argument("nearest_rank: no samples");
  if (p < 1 || p > 100) throw std::invalid_argument("nearest_rank: p out of range");
  const std::size_t r = rank_of(samples.size(), p);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   samples.end());
  return samples[r - 1];
}

std::size_t samples_beyond(std::size_t n, int p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

std::optional<int> tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (int p = 99; p >= 50; --p) {
    if (n > 0 && samples_beyond(n, p) >= min_beyond) return p;
  }
  return std::nullopt;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = nearest_rank(samples, 50);
  s.tail_pct = tail_percentile(s.n).value_or(50);
  s.tail = nearest_rank(samples, s.tail_pct);
  return s;
}

double median(const std::vector<double>& samples) {
  return nearest_rank(samples, 50);
}

EpochLedger::EpochLedger(std::vector<std::uint64_t> hour_volume)
    : hour_volume_(std::move(hour_volume)) {
  if (hour_volume_.empty()) throw std::invalid_argument("EpochLedger: no hours");
  prefix_.assign(hour_volume_.size() + 1, 0);
  for (std::size_t h = 0; h < hour_volume_.size(); ++h) {
    if (hour_volume_[h] == 0) {
      throw std::invalid_argument("EpochLedger: empty hour makes epochs ambiguous");
    }
    prefix_[h + 1] = prefix_[h] + hour_volume_[h];
  }
}

std::uint64_t EpochLedger::cumulative(std::uint64_t epoch) const noexcept {
  const std::uint64_t hours = hour_volume_.size();
  return (epoch / hours) * prefix_.back() + prefix_[epoch % hours + 1];
}

std::uint64_t EpochLedger::hour_slice(std::uint64_t epoch) const noexcept {
  const std::uint64_t hours = hour_volume_.size();
  return (epoch / hours + 1) * hour_volume_[epoch % hours];
}

std::optional<std::uint64_t> EpochLedger::epoch_of(double answer) const {
  if (!(answer >= 1.0) || answer >= 9007199254740992.0 ||
      std::floor(answer) != answer) {
    return std::nullopt;
  }
  const auto v = static_cast<std::uint64_t>(answer);
  const std::uint64_t hours = hour_volume_.size();
  const std::uint64_t week = prefix_.back();
  const std::uint64_t w = v / week;
  const std::uint64_t r = v % week;
  if (r == 0) return w * hours - 1;  // exactly w full weeks (w >= 1 here)
  // prefix_ strictly increases, so at most one hour matches.
  const auto it = std::lower_bound(prefix_.begin() + 1, prefix_.end(), r);
  if (it == prefix_.end() || *it != r) return std::nullopt;
  return w * hours + static_cast<std::uint64_t>(it - prefix_.begin() - 1);
}

}  // namespace perfbench
