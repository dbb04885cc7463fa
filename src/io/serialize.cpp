#include "io/serialize.hpp"

#include <string>
#include <utility>

#include "io/binary.hpp"
#include "util/error.hpp"

namespace appscope::io {

namespace {

// Every decoder validates enum bytes before casting: a corrupted (but
// checksum-colliding) or hand-crafted file must produce an InputError, not
// an out-of-range enum.
template <typename Enum>
Enum checked_enum(std::uint8_t raw, std::size_t count, const char* what) {
  if (raw >= count) {
    throw util::InputError(std::string("snapshot: invalid ") + what +
                           " value " + std::to_string(raw));
  }
  return static_cast<Enum>(raw);
}

/// Builds a component from decoded fields. The component constructors
/// state their invariants as preconditions; bytes from a file can break
/// them, which is an input error rather than a caller bug.
template <typename Build>
auto construct(const char* what, Build&& build) -> decltype(build()) {
  try {
    return build();
  } catch (const util::PreconditionError& e) {
    throw util::InputError(std::string("snapshot: invalid ") + what + ": " +
                           e.what());
  }
}

// Smallest encoding of one list element (empty strings and lists), the
// bound ByteReader::count checks each decoded element count against.
constexpr std::size_t kPointBytes = 2 * sizeof(double);
constexpr std::size_t kMinCommuneBytes =
    4 + 4 + kPointBytes + 8 + 4 + 1 + 4 + 1 + 1;
constexpr std::size_t kMinMetroBytes = 4 + kPointBytes + 4 + 8;
constexpr std::size_t kMinLineBytes = 8;
constexpr std::size_t kSubscriberBytes = 4;
constexpr std::size_t kMinServiceBytes =
    4 + 1 + 8 * workload::kDirectionCount + 6 * 8 + 8 + 5 * 8 + 1 + 8;
constexpr std::size_t kBoostBytes = 1 + 8 + 8;

void expect_exhausted(const ByteReader& r, const char* what) {
  if (!r.exhausted()) {
    throw util::InputError(std::string("snapshot: trailing bytes after ") +
                           what + " payload");
  }
}

void encode_point(ByteWriter& w, const geo::Point& p) {
  w.f64(p.x_km);
  w.f64(p.y_km);
}

geo::Point decode_point(ByteReader& r) {
  geo::Point p;
  p.x_km = r.f64();
  p.y_km = r.f64();
  return p;
}

}  // namespace

// --- ScenarioConfig ---------------------------------------------------------

std::vector<std::byte> encode_config(const synth::ScenarioConfig& config) {
  ByteWriter w;
  const geo::CountryConfig& c = config.country;
  w.u64(c.commune_count);
  w.u64(c.metro_count);
  w.f64(c.side_km);
  w.u64(c.seed);
  w.u32(c.largest_metro_population);
  w.f64(c.metro_zipf_exponent);
  w.f64(c.metro_commune_fraction);
  w.f64(c.metro_core_share);
  w.f64(c.rural_lognormal_mu);
  w.f64(c.rural_lognormal_sigma);
  w.f64(c.tgv_distance_km);
  w.u64(c.tgv_line_count);
  w.f64(c.thresholds.urban_density);
  w.f64(c.thresholds.semi_urban_density);
  w.u32(c.thresholds.urban_min_population);
  w.f64(c.p4g_urban);
  w.f64(c.p4g_semi);
  w.f64(c.p4g_rural);
  w.f64(c.p3g_urban);
  w.f64(c.p3g_semi);
  w.f64(c.p3g_rural);
  w.f64(c.p4g_tgv);

  const workload::PopulationConfig& p = config.population;
  w.f64(p.market_share);
  w.f64(p.share_jitter);
  w.u64(p.seed);

  w.u64(config.traffic_seed);
  w.f64(config.temporal_noise_sigma);
  w.u8(config.enable_mobility ? 1 : 0);
  w.f64(config.mobility.commuter_fraction);
  w.f64(config.mobility.work_start);
  w.f64(config.mobility.work_end);
  w.f64(config.mobility.shoulder_hours);
  // Format v1.1 tail (snapshot minor version 1): the region identifier and
  // the regional popularity tilt. Always written, so the region is part of
  // the config hash and a snapshot can never silently merge into the wrong
  // national view. decode_config accepts the shorter v1.0 encoding.
  w.str(config.region);
  w.f64(config.popularity_tilt);
  return std::move(w).take();
}

synth::ScenarioConfig decode_config(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  synth::ScenarioConfig config;
  geo::CountryConfig& c = config.country;
  c.commune_count = static_cast<std::size_t>(r.u64());
  c.metro_count = static_cast<std::size_t>(r.u64());
  c.side_km = r.f64();
  c.seed = r.u64();
  c.largest_metro_population = r.u32();
  c.metro_zipf_exponent = r.f64();
  c.metro_commune_fraction = r.f64();
  c.metro_core_share = r.f64();
  c.rural_lognormal_mu = r.f64();
  c.rural_lognormal_sigma = r.f64();
  c.tgv_distance_km = r.f64();
  c.tgv_line_count = static_cast<std::size_t>(r.u64());
  c.thresholds.urban_density = r.f64();
  c.thresholds.semi_urban_density = r.f64();
  c.thresholds.urban_min_population = r.u32();
  c.p4g_urban = r.f64();
  c.p4g_semi = r.f64();
  c.p4g_rural = r.f64();
  c.p3g_urban = r.f64();
  c.p3g_semi = r.f64();
  c.p3g_rural = r.f64();
  c.p4g_tgv = r.f64();

  workload::PopulationConfig& p = config.population;
  p.market_share = r.f64();
  p.share_jitter = r.f64();
  p.seed = r.u64();

  config.traffic_seed = r.u64();
  config.temporal_noise_sigma = r.f64();
  config.enable_mobility = r.u8() != 0;
  config.mobility.commuter_fraction = r.f64();
  config.mobility.work_start = r.f64();
  config.mobility.work_end = r.f64();
  config.mobility.shoulder_hours = r.f64();
  // v1.0 encodings end here; v1.1 appends the region identifier and the
  // popularity tilt. Reading is length-driven, so old snapshots decode to
  // the defaults (no region tag, untilted catalog) without a version probe.
  if (!r.exhausted()) {
    config.region = r.str();
    config.popularity_tilt = r.f64();
  }
  expect_exhausted(r, "config");
  return config;
}

std::uint64_t config_hash(const synth::ScenarioConfig& config) {
  return fnv1a64(encode_config(config));
}

// --- Territory --------------------------------------------------------------

std::vector<std::byte> encode_territory(const geo::Territory& territory) {
  ByteWriter w;
  w.f64(territory.side_km());
  w.u64(territory.communes().size());
  for (const geo::Commune& commune : territory.communes()) {
    w.u32(commune.id);
    w.str(commune.name);
    encode_point(w, commune.centroid);
    w.f64(commune.area_km2);
    w.u32(commune.population);
    w.u8(static_cast<std::uint8_t>(commune.urbanization));
    w.u32(commune.metro);
    w.u8(commune.has_3g ? 1 : 0);
    w.u8(commune.has_4g ? 1 : 0);
  }
  w.u64(territory.metros().size());
  for (const geo::Metro& metro : territory.metros()) {
    w.str(metro.name);
    encode_point(w, metro.center);
    w.u32(metro.population);
    w.f64(metro.radius_km);
  }
  w.u64(territory.tgv_lines().size());
  for (const geo::Polyline& line : territory.tgv_lines()) {
    w.u64(line.points.size());
    for (const geo::Point& point : line.points) encode_point(w, point);
  }
  return std::move(w).take();
}

geo::Territory decode_territory(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  const double side_km = r.f64();

  const std::size_t commune_count = r.count(kMinCommuneBytes);
  std::vector<geo::Commune> communes;
  communes.reserve(commune_count);
  for (std::size_t i = 0; i < commune_count; ++i) {
    geo::Commune commune;
    commune.id = r.u32();
    commune.name = r.str();
    commune.centroid = decode_point(r);
    commune.area_km2 = r.f64();
    commune.population = r.u32();
    commune.urbanization = checked_enum<geo::Urbanization>(
        r.u8(), geo::kUrbanizationCount, "urbanization class");
    commune.metro = r.u32();
    commune.has_3g = r.u8() != 0;
    commune.has_4g = r.u8() != 0;
    communes.push_back(std::move(commune));
  }

  const std::size_t metro_count = r.count(kMinMetroBytes);
  std::vector<geo::Metro> metros;
  metros.reserve(metro_count);
  for (std::size_t i = 0; i < metro_count; ++i) {
    geo::Metro metro;
    metro.name = r.str();
    metro.center = decode_point(r);
    metro.population = r.u32();
    metro.radius_km = r.f64();
    metros.push_back(std::move(metro));
  }

  const std::size_t line_count = r.count(kMinLineBytes);
  std::vector<geo::Polyline> lines;
  lines.reserve(line_count);
  for (std::size_t i = 0; i < line_count; ++i) {
    geo::Polyline line;
    const std::size_t point_count = r.count(kPointBytes);
    line.points.reserve(point_count);
    for (std::size_t j = 0; j < point_count; ++j) {
      line.points.push_back(decode_point(r));
    }
    lines.push_back(std::move(line));
  }
  expect_exhausted(r, "territory");
  return construct("territory", [&] {
    return geo::Territory(std::move(communes), std::move(metros),
                          std::move(lines), side_km);
  });
}

// --- SubscriberBase ---------------------------------------------------------

std::vector<std::byte> encode_subscribers(const workload::SubscriberBase& base) {
  ByteWriter w;
  w.u64(base.counts().size());
  for (const std::uint32_t count : base.counts()) w.u32(count);
  return std::move(w).take();
}

workload::SubscriberBase decode_subscribers(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  const std::size_t count = r.count(kSubscriberBytes);
  std::vector<std::uint32_t> counts;
  counts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) counts.push_back(r.u32());
  expect_exhausted(r, "subscribers");
  return construct("subscribers",
                   [&] { return workload::SubscriberBase(std::move(counts)); });
}

// --- ServiceCatalog ---------------------------------------------------------

std::vector<std::byte> encode_catalog(const workload::ServiceCatalog& catalog) {
  ByteWriter w;
  w.u64(catalog.size());
  for (const workload::ServiceSpec& spec : catalog.services()) {
    w.str(spec.name);
    w.u8(static_cast<std::uint8_t>(spec.category));
    for (const double rate : spec.urban_weekly_bytes_per_user) w.f64(rate);

    const workload::TemporalProfileParams& t = spec.temporal.params();
    w.f64(t.night_floor);
    w.f64(t.day_center);
    w.f64(t.day_sigma);
    w.f64(t.evening_weight);
    w.f64(t.evening_sigma);
    w.f64(t.weekend_scale);
    w.u64(t.boosts.size());
    for (const workload::PeakBoost& boost : t.boosts) {
      w.u8(static_cast<std::uint8_t>(boost.time));
      w.f64(boost.amplitude);
      w.f64(boost.width_hours);
    }

    const workload::SpatialProfile& s = spec.spatial;
    w.f64(s.semi_urban_ratio);
    w.f64(s.rural_ratio);
    w.f64(s.tgv_ratio);
    w.f64(s.activity_exponent);
    w.f64(s.residual_sigma);
    w.u8(s.requires_4g ? 1 : 0);
    w.f64(s.adoption);
  }
  return std::move(w).take();
}

workload::ServiceCatalog decode_catalog(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  const std::size_t count = r.count(kMinServiceBytes);
  std::vector<workload::ServiceSpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workload::ServiceSpec spec;
    spec.name = r.str();
    spec.category = checked_enum<workload::Category>(
        r.u8(), workload::kCategoryCount, "service category");
    for (double& rate : spec.urban_weekly_bytes_per_user) rate = r.f64();

    workload::TemporalProfileParams t;
    t.night_floor = r.f64();
    t.day_center = r.f64();
    t.day_sigma = r.f64();
    t.evening_weight = r.f64();
    t.evening_sigma = r.f64();
    t.weekend_scale = r.f64();
    const std::size_t boost_count = r.count(kBoostBytes);
    t.boosts.reserve(boost_count);
    for (std::size_t b = 0; b < boost_count; ++b) {
      workload::PeakBoost boost;
      boost.time = checked_enum<ts::TopicalTime>(r.u8(), ts::kTopicalTimeCount,
                                                 "topical time");
      boost.amplitude = r.f64();
      boost.width_hours = r.f64();
      t.boosts.push_back(boost);
    }
    spec.temporal = construct("temporal profile", [&] {
      return workload::TemporalProfile(std::move(t));
    });

    workload::SpatialProfile& s = spec.spatial;
    s.semi_urban_ratio = r.f64();
    s.rural_ratio = r.f64();
    s.tgv_ratio = r.f64();
    s.activity_exponent = r.f64();
    s.residual_sigma = r.f64();
    s.requires_4g = r.u8() != 0;
    s.adoption = r.f64();
    specs.push_back(std::move(spec));
  }
  expect_exhausted(r, "catalog");
  return construct("catalog",
                   [&] { return workload::ServiceCatalog(std::move(specs)); });
}

}  // namespace appscope::io
