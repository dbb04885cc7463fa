#include "region/spec.hpp"

#include <unordered_set>

#include "util/error.hpp"

namespace appscope::region {

namespace {

/// Static description of one metro-area preset; turned into a full
/// ScenarioConfig by apply_preset. The knobs are the axes the paper's
/// regional analyses are sensitive to: population scale (rank-size law
/// across cities), urbanization mix (metro_commune_fraction/core share) and
/// service-popularity skew (exp-tilt over the catalog ranking).
struct MetroPreset {
  const char* id;
  const char* name;
  /// Population of the area's dominant metro, relative to the scale
  /// preset's base (Paris = 1.0; the tail follows a rank-size decay).
  double population_scale;
  /// Fraction of communes clustered around metros: dense conurbations
  /// (Paris, Lille, Douai-Lens) high, sprawling rural areas low.
  double metro_commune_fraction;
  /// Share of the metro population in its core commune.
  double metro_core_share;
  /// Regional service-popularity tilt (see ScenarioConfig::popularity_tilt);
  /// positive = head-heavy usage, negative = long-tail-heavy.
  double popularity_tilt;
  /// Number of metro seeds in the region's territory.
  std::size_t metro_count;
};

// Twenty French metro areas in population-rank order. The mixes are
// caricatures, not census data: what matters is that the set spans dense
// urban (paris, lille), balanced (lyon, toulouse), touristic-coastal
// (nice, toulon), post-industrial (douai-lens, saint-etienne) and
// rural-anchored (clermont-ferrand, orleans) profiles.
constexpr MetroPreset kMetroPresets[] = {
    {"paris", "Paris", 1.00, 0.75, 0.45, +0.30, 5},
    {"lyon", "Lyon", 0.22, 0.55, 0.40, +0.15, 4},
    {"marseille", "Marseille", 0.21, 0.60, 0.42, +0.05, 4},
    {"toulouse", "Toulouse", 0.13, 0.45, 0.38, +0.10, 3},
    {"lille", "Lille", 0.12, 0.70, 0.35, +0.20, 4},
    {"bordeaux", "Bordeaux", 0.11, 0.45, 0.40, +0.08, 3},
    {"nice", "Nice", 0.10, 0.65, 0.44, -0.05, 3},
    {"nantes", "Nantes", 0.09, 0.40, 0.38, +0.02, 3},
    {"strasbourg", "Strasbourg", 0.08, 0.50, 0.40, -0.02, 3},
    {"rennes", "Rennes", 0.07, 0.35, 0.36, -0.08, 2},
    {"grenoble", "Grenoble", 0.07, 0.45, 0.40, +0.12, 2},
    {"rouen", "Rouen", 0.06, 0.40, 0.36, -0.04, 2},
    {"toulon", "Toulon", 0.06, 0.55, 0.42, -0.10, 2},
    {"montpellier", "Montpellier", 0.06, 0.45, 0.40, +0.06, 2},
    {"douai-lens", "Douai-Lens", 0.05, 0.65, 0.30, -0.15, 3},
    {"avignon", "Avignon", 0.05, 0.35, 0.34, -0.12, 2},
    {"saint-etienne", "Saint-Etienne", 0.05, 0.50, 0.36, -0.18, 2},
    {"tours", "Tours", 0.05, 0.30, 0.36, -0.06, 2},
    {"clermont-ferrand", "Clermont-Ferrand", 0.04, 0.25, 0.38, -0.20, 2},
    {"orleans", "Orleans", 0.04, 0.28, 0.36, -0.14, 2},
};

constexpr std::size_t kMetroPresetCount =
    sizeof(kMetroPresets) / sizeof(kMetroPresets[0]);

/// Per-scale base dimensions shared by every region.
struct ScaleBase {
  std::size_t communes;
  double side_km;
  std::uint32_t largest_metro_population;
};

ScaleBase scale_base(RegionScale scale) {
  switch (scale) {
    case RegionScale::kTiny:
      return {60, 120.0, 120'000};
    case RegionScale::kTest:
      return {200, 200.0, 400'000};
    case RegionScale::kExample:
      return {1'000, 350.0, 1'200'000};
  }
  throw util::InputError("RegionSet: unknown scale");
}

RegionSpec apply_preset(const MetroPreset& preset, std::size_t index,
                        RegionScale scale) {
  const ScaleBase base = scale_base(scale);

  RegionSpec spec;
  spec.id = preset.id;
  spec.name = preset.name;

  synth::ScenarioConfig& cfg = spec.config;
  cfg.region = preset.id;
  // Commune count scales sub-linearly with the metro's population: bigger
  // areas cover more communes, but even small areas keep a full rural
  // hinterland so every urbanization class stays populated.
  cfg.country.commune_count =
      base.communes + static_cast<std::size_t>(
                          0.5 * static_cast<double>(base.communes) *
                          preset.population_scale);
  cfg.country.metro_count = preset.metro_count;
  cfg.country.side_km = base.side_km;
  cfg.country.largest_metro_population = static_cast<std::uint32_t>(
      static_cast<double>(base.largest_metro_population) *
      (0.25 + 0.75 * preset.population_scale));
  cfg.country.metro_commune_fraction = preset.metro_commune_fraction;
  cfg.country.metro_core_share = preset.metro_core_share;
  cfg.country.tgv_line_count = preset.metro_count >= 4 ? 2 : 1;
  cfg.country.tgv_distance_km = 8.0;
  // Distinct, deterministic seed streams per region: geography, population
  // and traffic each get their own offset so no two regions share any
  // random draw, and the same preset always reproduces the same region.
  cfg.country.seed = 2016 + 1000 + index * 17;
  cfg.population.seed = 99 + index * 13;
  cfg.traffic_seed = 4242 + index * 29;
  cfg.temporal_noise_sigma = 0.02;  // small territories, as in test_scale()
  cfg.popularity_tilt = preset.popularity_tilt;
  return spec;
}

}  // namespace

bool valid_region_id(const std::string& id) noexcept {
  return !id.empty() && id != "." && id != ".." &&
         id.find('/') == std::string::npos &&
         id.find('\\') == std::string::npos;
}

RegionSet::RegionSet(std::vector<RegionSpec> regions)
    : regions_(std::move(regions)) {
  if (regions_.empty()) {
    throw util::InputError("RegionSet: at least one region required");
  }
  std::unordered_set<std::string> seen;
  for (const RegionSpec& r : regions_) {
    if (!valid_region_id(r.id)) {
      throw util::InputError("RegionSet: region id \"" + r.id +
                             "\" must be a single path component");
    }
    if (!seen.insert(r.id).second) {
      throw util::InputError("RegionSet: duplicate region id \"" + r.id + "\"");
    }
    if (r.config.region != r.id) {
      throw util::InputError("RegionSet: region \"" + r.id +
                             "\" has config.region \"" + r.config.region +
                             "\" (must match the id)");
    }
  }
}

RegionSet RegionSet::metro_areas(std::size_t count, RegionScale scale) {
  if (count == 0 || count > kMetroPresetCount) {
    throw util::InputError("RegionSet::metro_areas: count must be in [1, " +
                           std::to_string(kMetroPresetCount) + "]");
  }
  std::vector<RegionSpec> regions;
  regions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    regions.push_back(apply_preset(kMetroPresets[i], i, scale));
  }
  return RegionSet(std::move(regions));
}

RegionSet RegionSet::metro_areas_named(const std::vector<std::string>& ids,
                                       RegionScale scale) {
  std::vector<RegionSpec> regions;
  regions.reserve(ids.size());
  for (const std::string& id : ids) {
    bool found = false;
    for (std::size_t i = 0; i < kMetroPresetCount; ++i) {
      if (id == kMetroPresets[i].id) {
        regions.push_back(apply_preset(kMetroPresets[i], i, scale));
        found = true;
        break;
      }
    }
    if (!found) {
      throw util::InputError("RegionSet: unknown metro-area preset \"" + id +
                             "\"");
    }
  }
  return RegionSet(std::move(regions));
}

std::vector<std::string> RegionSet::preset_ids() {
  std::vector<std::string> ids;
  ids.reserve(kMetroPresetCount);
  for (const MetroPreset& p : kMetroPresets) ids.emplace_back(p.id);
  return ids;
}

}  // namespace appscope::region
