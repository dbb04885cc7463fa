#include "ts/hierarchical.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace appscope::ts {

namespace {

/// Union of leaves under each active cluster, tracked explicitly so any
/// linkage can be evaluated from the pairwise leaf distances.
struct ActiveCluster {
  std::size_t id = 0;
  std::vector<std::size_t> leaves;
};

double linkage_distance(const DistanceMatrix& d, const ActiveCluster& a,
                        const ActiveCluster& b, Linkage linkage) {
  double best = linkage == Linkage::kSingle
                    ? std::numeric_limits<double>::infinity()
                    : 0.0;
  double sum = 0.0;
  for (const std::size_t i : a.leaves) {
    for (const std::size_t j : b.leaves) {
      const double dist = d(i, j);
      switch (linkage) {
        case Linkage::kSingle: best = std::min(best, dist); break;
        case Linkage::kComplete: best = std::max(best, dist); break;
        case Linkage::kAverage: sum += dist; break;
      }
    }
  }
  if (linkage == Linkage::kAverage) {
    return sum / static_cast<double>(a.leaves.size() * b.leaves.size());
  }
  return best;
}

}  // namespace

Dendrogram hierarchical_cluster(const DistanceMatrix& d, Linkage linkage) {
  APPSCOPE_REQUIRE(!d.empty(), "hierarchical_cluster: no items");
  const std::size_t n = d.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      APPSCOPE_REQUIRE(d(i, j) >= 0.0,
                       "hierarchical_cluster: negative distance");
    }
  }

  Dendrogram out;
  out.leaf_count = n;
  std::vector<ActiveCluster> active;
  active.reserve(n);
  for (std::size_t i = 0; i < n; ++i) active.push_back({i, {i}});

  std::size_t next_id = n;
  while (active.size() > 1) {
    std::size_t best_a = 0;
    std::size_t best_b = 1;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < active.size(); ++a) {
      for (std::size_t b = a + 1; b < active.size(); ++b) {
        const double dd = linkage_distance(d, active[a], active[b], linkage);
        if (dd < best_d) {
          best_d = dd;
          best_a = a;
          best_b = b;
        }
      }
    }
    MergeStep step;
    step.left = active[best_a].id;
    step.right = active[best_b].id;
    step.parent = next_id++;
    step.distance = best_d;
    out.merges.push_back(step);

    ActiveCluster merged;
    merged.id = step.parent;
    merged.leaves = active[best_a].leaves;
    merged.leaves.insert(merged.leaves.end(), active[best_b].leaves.begin(),
                         active[best_b].leaves.end());
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(best_b));
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(best_a));
    active.push_back(std::move(merged));
  }
  return out;
}

std::pair<double, std::size_t> Dendrogram::largest_merge_gap() const {
  APPSCOPE_REQUIRE(!merges.empty(), "largest_merge_gap: degenerate dendrogram");
  double best_gap = 0.0;
  std::size_t best_index = 0;
  for (std::size_t i = 1; i < merges.size(); ++i) {
    const double gap = merges[i].distance - merges[i - 1].distance;
    if (gap > best_gap) {
      best_gap = gap;
      best_index = i - 1;
    }
  }
  return {best_gap, best_index};
}

}  // namespace appscope::ts
