#include "geo/territory.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace appscope::geo {

Territory::Territory(std::vector<Commune> communes, std::vector<Metro> metros,
                     std::vector<Polyline> tgv_lines, double side_km)
    : communes_(std::move(communes)),
      metros_(std::move(metros)),
      tgv_lines_(std::move(tgv_lines)),
      side_km_(side_km) {
  APPSCOPE_REQUIRE(!communes_.empty(), "Territory: no communes");
  for (std::size_t i = 0; i < communes_.size(); ++i) {
    APPSCOPE_REQUIRE(communes_[i].id == i, "Territory: commune ids must be dense");
  }
}

const Commune& Territory::commune(CommuneId id) const {
  APPSCOPE_REQUIRE(id < communes_.size(), "Territory::commune: id out of range");
  return communes_[id];
}

std::vector<std::size_t> Territory::communes_in(Urbanization u) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < communes_.size(); ++i) {
    if (communes_[i].urbanization == u) out.push_back(i);
  }
  return out;
}

std::uint64_t Territory::population_in(Urbanization u) const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : communes_) {
    if (c.urbanization == u) total += c.population;
  }
  return total;
}

namespace {

std::vector<Metro> place_metros(const CountryConfig& cfg, util::Rng& rng) {
  std::vector<Metro> metros;
  metros.reserve(cfg.metro_count);
  const double margin = 0.12 * cfg.side_km;
  const double min_separation = cfg.side_km / 8.0;
  for (std::size_t m = 0; m < cfg.metro_count; ++m) {
    Point p;
    // Rejection placement keeping metros apart; bounded attempts keep the
    // builder total even for dense configurations.
    for (int attempt = 0; attempt < 256; ++attempt) {
      p = Point{rng.uniform(margin, cfg.side_km - margin),
                rng.uniform(margin, cfg.side_km - margin)};
      bool ok = true;
      for (const auto& other : metros) {
        if (distance_km(p, other.center) < min_separation) {
          ok = false;
          break;
        }
      }
      if (ok) break;
    }
    Metro metro;
    // Built in two steps: gcc 12's -Wrestrict misfires on the inlined
    // temporary from operator+(const char*, std::string&&) at -O2.
    metro.name = "M";
    metro.name += std::to_string(m);
    metro.center = p;
    metro.population = static_cast<std::uint32_t>(
        static_cast<double>(cfg.largest_metro_population) *
        std::pow(static_cast<double>(m + 1), -cfg.metro_zipf_exponent));
    metro.radius_km =
        6.0 + 0.9 * std::sqrt(static_cast<double>(metro.population) / 1000.0);
    metros.push_back(std::move(metro));
  }
  return metros;
}

std::vector<Polyline> build_tgv_lines(const CountryConfig& cfg,
                                      const std::vector<Metro>& metros,
                                      util::Rng& rng) {
  std::vector<Polyline> lines;
  const std::size_t n_lines =
      std::min(cfg.tgv_line_count, metros.size() > 1 ? metros.size() - 1 : 0);
  for (std::size_t i = 0; i < n_lines; ++i) {
    // Radiate from the largest metro to the next-largest ones, with a
    // jittered midpoint so lines cross countryside rather than beeline.
    const Point a = metros[0].center;
    const Point b = metros[i + 1].center;
    const Point mid{(a.x_km + b.x_km) / 2.0 + rng.normal(0.0, 0.04 * cfg.side_km),
                    (a.y_km + b.y_km) / 2.0 + rng.normal(0.0, 0.04 * cfg.side_km)};
    lines.push_back(Polyline{{a, mid, b}});
  }
  return lines;
}

}  // namespace

Territory build_synthetic_country(const CountryConfig& cfg) {
  APPSCOPE_REQUIRE(cfg.commune_count >= 16, "country: needs >= 16 communes");
  APPSCOPE_REQUIRE(cfg.metro_count >= 1, "country: needs >= 1 metro");
  APPSCOPE_REQUIRE(cfg.commune_count >= 4 * cfg.metro_count,
                   "country: needs >= 4 communes per metro");
  APPSCOPE_REQUIRE(cfg.side_km > 10.0, "country: side too small");
  APPSCOPE_REQUIRE(cfg.metro_commune_fraction > 0.0 &&
                       cfg.metro_commune_fraction < 1.0,
                   "country: metro_commune_fraction must be in (0,1)");

  util::Rng rng(cfg.seed);
  util::Rng metro_rng = rng.fork(1);
  util::Rng commune_rng = rng.fork(2);
  util::Rng coverage_rng = rng.fork(3);

  std::vector<Metro> metros = place_metros(cfg, metro_rng);
  std::vector<Polyline> tgv_lines = build_tgv_lines(cfg, metros, metro_rng);

  std::vector<Commune> communes;
  communes.reserve(cfg.commune_count);

  // --- Metro commune clusters -------------------------------------------
  const auto n_metro_communes = static_cast<std::size_t>(
      cfg.metro_commune_fraction * static_cast<double>(cfg.commune_count));
  // Communes per metro scale sublinearly with population so small metros
  // still get a meaningful cluster.
  std::vector<double> metro_weights;
  metro_weights.reserve(metros.size());
  for (const auto& m : metros) {
    metro_weights.push_back(std::pow(static_cast<double>(m.population), 0.75));
  }
  const double weight_total =
      std::accumulate(metro_weights.begin(), metro_weights.end(), 0.0);

  for (std::size_t m = 0; m < metros.size(); ++m) {
    auto count = static_cast<std::size_t>(
        std::max(4.0, std::round(static_cast<double>(n_metro_communes) *
                                 metro_weights[m] / weight_total)));
    // Raw population weights decay with distance from the metro core.
    std::vector<Point> positions(count);
    std::vector<double> raw(count);
    double raw_total = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const double radius = std::abs(commune_rng.normal(0.0, metros[m].radius_km));
      const double angle = commune_rng.uniform(0.0, 2.0 * M_PI);
      positions[i] = Point{
          std::clamp(metros[m].center.x_km + radius * std::cos(angle), 0.0,
                     cfg.side_km),
          std::clamp(metros[m].center.y_km + radius * std::sin(angle), 0.0,
                     cfg.side_km)};
      raw[i] = std::exp(-radius / metros[m].radius_km) *
               commune_rng.lognormal(0.0, 0.5);
      if (i > 0) raw_total += raw[i];  // the core's share is fixed, see below
    }
    for (std::size_t i = 0; i < count; ++i) {
      Commune c;
      c.id = static_cast<CommuneId>(communes.size());
      c.name = metros[m].name + "-C" + std::to_string(i);
      c.centroid = i == 0 ? metros[m].center : positions[i];
      // The first commune is the metro's core and holds a fixed share of
      // the population; satellites share the rest by decayed weight.
      const double share =
          i == 0 ? cfg.metro_core_share
                 : (1.0 - cfg.metro_core_share) * raw[i] / raw_total;
      c.population = static_cast<std::uint32_t>(
          static_cast<double>(metros[m].population) * share);
      // Denser cores sit on smaller communes.
      c.area_km2 = commune_rng.uniform(3.0, 14.0);
      c.metro = static_cast<std::uint32_t>(m);
      communes.push_back(std::move(c));
      if (communes.size() >= cfg.commune_count) break;
    }
    if (communes.size() >= cfg.commune_count) break;
  }

  // --- Rural scatter -------------------------------------------------------
  std::size_t rural_index = 0;
  while (communes.size() < cfg.commune_count) {
    Commune c;
    c.id = static_cast<CommuneId>(communes.size());
    c.name = "R-C" + std::to_string(rural_index++);
    c.centroid = Point{commune_rng.uniform(0.0, cfg.side_km),
                       commune_rng.uniform(0.0, cfg.side_km)};
    const double pop = commune_rng.lognormal(cfg.rural_lognormal_mu,
                                             cfg.rural_lognormal_sigma);
    c.population = static_cast<std::uint32_t>(std::clamp(pop, 25.0, 25'000.0));
    c.area_km2 = commune_rng.uniform(8.0, 30.0);
    communes.push_back(std::move(c));
  }

  // --- Classification ------------------------------------------------------
  for (auto& c : communes) {
    c.urbanization = classify_urbanization(c, cfg.thresholds);
  }
  // TGV tag: rural communes near a high-speed line.
  for (auto& c : communes) {
    if (c.urbanization != Urbanization::kRural) continue;
    for (const auto& line : tgv_lines) {
      if (line.distance_km(c.centroid) <= cfg.tgv_distance_km) {
        c.urbanization = Urbanization::kTgv;
        break;
      }
    }
  }

  // --- Coverage --------------------------------------------------------------
  for (auto& c : communes) {
    double p4g = cfg.p4g_rural;
    double p3g = cfg.p3g_rural;
    switch (c.urbanization) {
      case Urbanization::kUrban:
        p4g = cfg.p4g_urban;
        p3g = cfg.p3g_urban;
        break;
      case Urbanization::kSemiUrban:
        p4g = cfg.p4g_semi;
        p3g = cfg.p3g_semi;
        break;
      case Urbanization::kTgv:
        p4g = cfg.p4g_tgv;
        p3g = cfg.p3g_semi;
        break;
      case Urbanization::kRural:
        break;
    }
    c.has_4g = coverage_rng.bernoulli(p4g);
    c.has_3g = c.has_4g || coverage_rng.bernoulli(p3g);
  }

  return Territory(std::move(communes), std::move(metros), std::move(tgv_lines),
                   cfg.side_km);
}

}  // namespace appscope::geo
