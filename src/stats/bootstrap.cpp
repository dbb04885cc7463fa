#include "stats/bootstrap.hpp"

#include <algorithm>
#include <vector>

#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace appscope::stats {

BootstrapCi bootstrap_mean_ci(std::span<const double> sample,
                              std::size_t iterations, double alpha,
                              std::uint64_t seed) {
  APPSCOPE_REQUIRE(!sample.empty(), "bootstrap: empty sample");
  APPSCOPE_REQUIRE(iterations >= 100, "bootstrap: needs >= 100 iterations");
  APPSCOPE_REQUIRE(alpha > 0.0 && alpha < 0.5, "bootstrap: alpha in (0, 0.5)");
  util::StageTimer timer("stats.bootstrap");
  timer.add_items(iterations);

  // Replicates fan out across the pool, each drawing from its own forked
  // stream base.fork(it): replicate `it` resamples identically no matter
  // which thread (or how many threads) runs it, and the sort below erases
  // completion order, so the CI is deterministic in `seed` alone.
  const util::Rng base(seed);
  std::vector<double> estimates(iterations, 0.0);
  constexpr std::size_t kReplicatesPerShard = 64;
  util::parallel_for(
      0, iterations, kReplicatesPerShard, [&](std::size_t lo, std::size_t hi) {
        std::vector<double> resample(sample.size());
        for (std::size_t it = lo; it < hi; ++it) {
          util::Rng rng = base.fork(it);
          for (double& v : resample) {
            v = sample[rng.uniform_index(sample.size())];
          }
          estimates[it] = mean(resample);
        }
      });
  std::sort(estimates.begin(), estimates.end());

  BootstrapCi ci;
  ci.alpha = alpha;
  ci.point = mean(sample);
  const auto at = [&estimates](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(estimates.size() - 1));
    return estimates[idx];
  };
  ci.lower = at(alpha / 2.0);
  ci.upper = at(1.0 - alpha / 2.0);
  return ci;
}

}  // namespace appscope::stats
