// appscope/region/spec.hpp
//
// Multi-region scale-out, layer 1: named region presets. A RegionSpec is a
// ScenarioConfig specialized for one metro area — its own commune count,
// population scale, urbanization mix and service-popularity tilt, plus the
// region id that ends up in the snapshot config (format v1.1) so a region's
// snapshots can never be mistaken for another's. A RegionSet is the
// validated collection one orchestration run operates on.
//
// The 20 presets mirror NetMob-style multi-city cartographies: a dominant
// capital, a handful of large metros, and a tail of mid-size areas, each
// with a distinct urban/rural balance and popularity skew so the regional
// comparison analyses (region/compare.hpp) have real heterogeneity to find.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "synth/scenario.hpp"

namespace appscope::region {

/// How large each region's synthetic territory is. Mirrors the
/// ScenarioConfig scale presets: kTiny keeps property tests fast, kTest is
/// the unit/integration scale, kExample suits demos and smoke runs.
enum class RegionScale {
  kTiny,     // ~60 communes per region
  kTest,     // ~200 communes per region
  kExample,  // ~1,000 communes per region
};

/// One region of a multi-region campaign.
struct RegionSpec {
  /// Stable key: a single path component ("paris", "douai-lens", ...); the
  /// orchestrator publishes this region's snapshots under <root>/<id>/.
  std::string id;
  /// Human-readable metro-area name for reports.
  std::string name;
  /// Fully parameterized scenario; config.region == id.
  synth::ScenarioConfig config;
};

/// An ordered, validated set of regions. Construction throws
/// util::InputError on duplicate or empty ids, ids that are not a single
/// path component, or a config whose region field disagrees with the id.
class RegionSet {
 public:
  explicit RegionSet(std::vector<RegionSpec> regions);

  std::size_t size() const noexcept { return regions_.size(); }
  const RegionSpec& operator[](std::size_t i) const { return regions_.at(i); }
  const std::vector<RegionSpec>& regions() const noexcept { return regions_; }

  /// The first `count` metro-area presets (1..20) at the given scale.
  /// Throws util::InputError when count is 0 or exceeds the preset table.
  static RegionSet metro_areas(std::size_t count,
                               RegionScale scale = RegionScale::kTest);

  /// A subset of the preset table selected by id, in the order given.
  /// Throws util::InputError on unknown ids.
  static RegionSet metro_areas_named(const std::vector<std::string>& ids,
                                     RegionScale scale = RegionScale::kTest);

  /// Ids of every preset, in preset (population-rank) order.
  static std::vector<std::string> preset_ids();

 private:
  std::vector<RegionSpec> regions_;
};

/// True when `id` can be used as a region key: non-empty, not "." or "..",
/// and free of path separators. The snapshot publish layout nests a
/// directory per region under one root, so ids must never escape it.
bool valid_region_id(const std::string& id) noexcept;

}  // namespace appscope::region
