#include "workload/catalog.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::workload {

namespace {

using ts::TopicalTime;

/// Builder shorthand for a service entry. dl/ul weights are relative volume
/// shares (Fig. 3 scale); they are converted to per-user byte rates below.
struct Row {
  const char* name;
  Category category;
  double dl_weight;
  double ul_weight;
  TemporalProfileParams temporal;
  SpatialProfile spatial;
};

TemporalProfileParams shape(double night, double day_center, double day_sigma,
                            double evening_weight, double weekend_scale,
                            std::vector<PeakBoost> boosts) {
  TemporalProfileParams p;
  p.night_floor = night;
  p.day_center = day_center;
  p.day_sigma = day_sigma;
  p.evening_weight = evening_weight;
  p.weekend_scale = weekend_scale;
  p.boosts = std::move(boosts);
  return p;
}

SpatialProfile space(double semi, double rural, double tgv,
                     double activity_exponent = 1.0, double residual = 0.45,
                     bool requires_4g = false, double adoption = 1.0) {
  SpatialProfile s;
  s.semi_urban_ratio = semi;
  s.rural_ratio = rural;
  s.tgv_ratio = tgv;
  s.activity_exponent = activity_exponent;
  s.residual_sigma = residual;
  s.requires_4g = requires_4g;
  s.adoption = adoption;
  return s;
}

PeakBoost boost(TopicalTime t, double amplitude, double width = 0.8) {
  return PeakBoost{t, amplitude, width};
}

/// Mean weekly downlink bytes per urban user, summed over all services.
/// ~100 MB/week keeps per-subscriber CDFs in the paper's 1 B – 100 MB span.
constexpr double kUrbanWeeklyDownlinkBytes = 100.0e6;
/// Uplink is less than one twentieth of the total network load (Sec. 3).
constexpr double kUplinkFractionOfTotal = 1.0 / 21.0;

std::vector<Row> paper_rows() {
  std::vector<Row> rows;
  rows.reserve(20);

  // --- Video streaming (aggregate ≈ 46% of downlink) -----------------------
  rows.push_back({"YouTube", Category::kVideoStreaming, 22.0, 4.0,
                  shape(0.10, 15.5, 5.5, 0.0, 1.05,
                        {boost(TopicalTime::kMidday, 0.50),
                         boost(TopicalTime::kEvening, 0.70),
                         boost(TopicalTime::kWeekendEvening, 0.30)}),
                  space(1.00, 0.55, 2.3)});
  rows.push_back({"iTunes", Category::kVideoStreaming, 9.0, 1.5,
                  shape(0.12, 14.5, 5.0, 0.0, 0.85,
                        {boost(TopicalTime::kMidday, 0.90),
                         boost(TopicalTime::kMorningCommute, 0.50),
                         boost(TopicalTime::kWeekendMidday, 0.20)}),
                  space(0.95, 0.50, 2.0)});
  rows.push_back({"Facebook Video", Category::kVideoStreaming, 6.5, 2.0,
                  shape(0.12, 15.0, 5.5, 0.0, 1.00,
                        {boost(TopicalTime::kMidday, 0.70),
                         boost(TopicalTime::kAfternoonCommute, 0.45),
                         boost(TopicalTime::kWeekendMidday, 0.25)}),
                  space(1.00, 0.55, 2.4)});
  rows.push_back({"Instagram video", Category::kVideoStreaming, 4.5, 1.8,
                  shape(0.12, 16.0, 5.0, 0.0, 1.10,
                        {boost(TopicalTime::kMorningBreak, 0.35),
                         boost(TopicalTime::kEvening, 0.50),
                         boost(TopicalTime::kWeekendEvening, 0.25)}),
                  space(1.05, 0.50, 2.5)});
  rows.push_back({"Netflix", Category::kVideoStreaming, 3.0, 0.4,
                  shape(0.08, 17.5, 4.5, 0.0, 1.20,
                        {boost(TopicalTime::kEvening, 0.80),
                         boost(TopicalTime::kWeekendEvening, 0.35)}),
                  // The high-end outlier: 4G-gated, half the communes never
                  // adopt it, and the per-commune dispersion is the largest.
                  space(0.85, 0.15, 1.6, 1.3, 0.75, /*requires_4g=*/true,
                        /*adoption=*/0.55)});

  // --- Audio streaming ------------------------------------------------------
  rows.push_back({"Audio", Category::kAudioStreaming, 4.0, 0.6,
                  shape(0.10, 13.5, 5.5, 0.0, 0.80,
                        {boost(TopicalTime::kMorningCommute, 1.10),
                         boost(TopicalTime::kAfternoonCommute, 0.45)}),
                  space(0.95, 0.50, 2.8)});

  // --- Social networks ------------------------------------------------------
  rows.push_back({"Facebook", Category::kSocial, 8.0, 10.0,
                  shape(0.14, 14.5, 5.5, 0.0, 0.95,
                        {boost(TopicalTime::kMidday, 1.20),
                         boost(TopicalTime::kMorningBreak, 0.40),
                         boost(TopicalTime::kAfternoonCommute, 0.40),
                         boost(TopicalTime::kWeekendMidday, 0.20)}),
                  space(1.00, 0.55, 2.2)});
  rows.push_back({"Twitter", Category::kSocial, 4.0, 3.5,
                  shape(0.13, 14.0, 5.5, 0.0, 0.85,
                        {boost(TopicalTime::kMorningCommute, 0.80),
                         boost(TopicalTime::kMidday, 0.50),
                         boost(TopicalTime::kMorningBreak, 0.35),
                         boost(TopicalTime::kEvening, 0.35)}),
                  space(0.95, 0.50, 2.5)});
  rows.push_back({"Google Services", Category::kWeb, 6.0, 5.0,
                  shape(0.15, 14.5, 5.5, 0.0, 0.90,
                        {boost(TopicalTime::kMidday, 0.60),
                         boost(TopicalTime::kMorningCommute, 0.60),
                         boost(TopicalTime::kAfternoonCommute, 0.40)}),
                  space(1.00, 0.60, 2.0, 0.7, 0.35)});
  rows.push_back({"Instagram", Category::kSocial, 4.0, 8.5,
                  shape(0.12, 15.5, 5.5, 0.0, 1.10,
                        {boost(TopicalTime::kMorningBreak, 0.45),
                         boost(TopicalTime::kMidday, 0.60),
                         boost(TopicalTime::kWeekendEvening, 0.30),
                         boost(TopicalTime::kEvening, 0.40)}),
                  space(1.05, 0.50, 2.6)});

  // --- News / adult ----------------------------------------------------------
  rows.push_back({"News", Category::kNews, 3.0, 0.8,
                  shape(0.12, 12.5, 5.0, 0.0, 0.75,
                        {boost(TopicalTime::kMorningCommute, 1.20),
                         boost(TopicalTime::kMidday, 0.90)}),
                  space(0.95, 0.55, 2.4)});
  rows.push_back({"Adult", Category::kAdult, 3.5, 0.7,
                  shape(0.18, 18.0, 4.5, 0.0, 1.15,
                        {boost(TopicalTime::kEvening, 0.75)}),
                  // "TGV seats are probably not the best environment":
                  // uniquely depressed TGV ratio (Fig. 11 commentary).
                  space(1.00, 0.60, 0.35)});

  // --- App stores / cloud -----------------------------------------------------
  rows.push_back({"Apple store", Category::kAppStore, 3.5, 0.9,
                  shape(0.12, 14.5, 5.0, 0.0, 0.90,
                        {boost(TopicalTime::kMidday, 1.60),
                         boost(TopicalTime::kEvening, 0.45)}),
                  space(0.95, 0.50, 2.0)});
  rows.push_back({"Google Play", Category::kAppStore, 3.0, 0.8,
                  shape(0.12, 14.5, 5.0, 0.0, 0.95,
                        {boost(TopicalTime::kMidday, 1.00),
                         boost(TopicalTime::kWeekendMidday, 0.30)}),
                  space(1.00, 0.55, 2.1)});
  rows.push_back({"iCloud", Category::kCloud, 1.5, 6.0,
                  shape(0.25, 15.0, 6.0, 0.0, 1.00,
                        {boost(TopicalTime::kMidday, 0.30),
                         boost(TopicalTime::kEvening, 0.45),
                         boost(TopicalTime::kWeekendMidday, 0.20)}),
                  // The uniformity outlier: every iPhone pushes backups, so
                  // coupling to the commune activity factor is minimal.
                  space(1.00, 0.80, 1.4, 0.15, 0.30)});

  // --- Messaging ---------------------------------------------------------------
  rows.push_back({"SnapChat", Category::kMessaging, 4.0, 12.0,
                  shape(0.10, 15.5, 5.5, 0.0, 1.15,
                        {boost(TopicalTime::kMorningBreak, 0.35),
                         boost(TopicalTime::kMidday, 0.80),
                         boost(TopicalTime::kAfternoonCommute, 0.50),
                         boost(TopicalTime::kWeekendMidday, 0.30),
                         boost(TopicalTime::kWeekendEvening, 0.35)}),
                  space(1.05, 0.45, 2.4)});
  rows.push_back({"WhatsApp", Category::kMessaging, 1.5, 5.5,
                  shape(0.13, 15.0, 6.0, 0.0, 1.05,
                        {boost(TopicalTime::kMidday, 0.70),
                         boost(TopicalTime::kAfternoonCommute, 0.55),
                         boost(TopicalTime::kEvening, 0.60),
                         boost(TopicalTime::kWeekendMidday, 0.25)}),
                  space(1.00, 0.55, 2.3)});

  // --- Mail / MMS / gaming --------------------------------------------------------
  rows.push_back({"Mail", Category::kMail, 1.2, 2.5,
                  shape(0.15, 12.5, 5.0, 0.0, 0.60,
                        {boost(TopicalTime::kMorningCommute, 0.90),
                         boost(TopicalTime::kMidday, 0.75),
                         boost(TopicalTime::kEvening, 0.25)}),
                  space(0.95, 0.60, 2.2)});
  rows.push_back({"MMS", Category::kMms, 0.3, 1.0,
                  shape(0.12, 14.0, 6.0, 0.0, 1.00,
                        {boost(TopicalTime::kWeekendMidday, 0.35),
                         boost(TopicalTime::kEvening, 0.25)}),
                  space(1.00, 0.75, 1.8, 0.4, 0.35)});
  rows.push_back({"Pokemon Go", Category::kGaming, 1.3, 0.9,
                  shape(0.08, 16.0, 4.5, 0.0, 1.25,
                        {boost(TopicalTime::kAfternoonCommute, 0.45),
                         boost(TopicalTime::kWeekendMidday, 0.40),
                         boost(TopicalTime::kEvening, 0.45)}),
                  space(1.05, 0.45, 2.0)});
  return rows;
}

}  // namespace

ServiceCatalog::ServiceCatalog(std::vector<ServiceSpec> services)
    : services_(std::move(services)) {
  APPSCOPE_REQUIRE(!services_.empty(), "ServiceCatalog: no services");
  for (std::size_t i = 0; i < services_.size(); ++i) {
    for (std::size_t j = i + 1; j < services_.size(); ++j) {
      APPSCOPE_REQUIRE(services_[i].name != services_[j].name,
                       "ServiceCatalog: duplicate service name");
    }
  }
}

ServiceCatalog ServiceCatalog::paper_services() {
  const std::vector<Row> rows = paper_rows();

  double dl_total = 0.0;
  double ul_total = 0.0;
  for (const Row& r : rows) {
    dl_total += r.dl_weight;
    ul_total += r.ul_weight;
  }
  // Convert Fig. 3 relative weights into per-user weekly byte rates so that
  // urban users total ~kUrbanWeeklyDownlinkBytes down and the uplink carries
  // its ~1/21 share of the total load.
  const double dl_scale = kUrbanWeeklyDownlinkBytes / dl_total;
  const double total_load =
      kUrbanWeeklyDownlinkBytes / (1.0 - kUplinkFractionOfTotal);
  const double ul_scale = total_load * kUplinkFractionOfTotal / ul_total;

  std::vector<ServiceSpec> specs;
  specs.reserve(rows.size());
  for (const Row& r : rows) {
    ServiceSpec spec;
    spec.name = r.name;
    spec.category = r.category;
    spec.urban_weekly_bytes_per_user = {r.dl_weight * dl_scale,
                                        r.ul_weight * ul_scale};
    spec.temporal = TemporalProfile(r.temporal);
    spec.spatial = r.spatial;
    specs.push_back(std::move(spec));
  }
  return ServiceCatalog(std::move(specs));
}

ServiceCatalog ServiceCatalog::with_long_tail(std::size_t total_services,
                                              std::uint64_t seed) {
  ServiceCatalog head = paper_services();
  APPSCOPE_REQUIRE(total_services > head.size(),
                   "with_long_tail: total must exceed the paper catalog");

  // Volumes continuing the head's law, shared with full_service_ranking so
  // the generated tail and the analytic tail agree by construction.
  const std::vector<double> dl_law =
      full_service_ranking(head, Direction::kDownlink, total_services, 0.0);
  const std::vector<double> ul_law =
      full_service_ranking(head, Direction::kUplink, total_services, 0.0);

  util::Rng rng(seed);
  std::vector<ServiceSpec> specs = head.services();
  specs.reserve(total_services);
  for (std::size_t r = head.size(); r < total_services; ++r) {
    ServiceSpec spec;
    std::string rank_str = std::to_string(r + 1);
    if (rank_str.size() < 3) rank_str.insert(0, 3 - rank_str.size(), '0');
    spec.name = "svc-" + rank_str;
    spec.category = Category::kOther;
    spec.urban_weekly_bytes_per_user = {dl_law[r], ul_law[r]};

    // A plain diurnal profile with mild per-service variation; tail
    // services are too small to register topical peaks nationally.
    TemporalProfileParams p;
    p.night_floor = rng.uniform(0.08, 0.25);
    p.day_center = rng.uniform(12.0, 18.0);
    p.day_sigma = rng.uniform(4.5, 6.5);
    p.evening_weight = 0.0;
    p.weekend_scale = rng.uniform(0.7, 1.3);
    spec.temporal = TemporalProfile(p);

    SpatialProfile s;
    s.semi_urban_ratio = rng.uniform(0.85, 1.1);
    s.rural_ratio = rng.uniform(0.4, 0.7);
    s.tgv_ratio = rng.uniform(1.2, 2.8);
    s.residual_sigma = rng.uniform(0.3, 0.8);
    spec.spatial = s;
    specs.push_back(std::move(spec));
  }
  return ServiceCatalog(std::move(specs));
}

const ServiceSpec& ServiceCatalog::operator[](ServiceIndex i) const {
  APPSCOPE_REQUIRE(i < services_.size(), "ServiceCatalog: index out of range");
  return services_[i];
}

std::optional<ServiceIndex> ServiceCatalog::find(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < services_.size(); ++i) {
    if (services_[i].name == name) return i;
  }
  return std::nullopt;
}

std::vector<std::string> ServiceCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(services_.size());
  for (const auto& s : services_) out.push_back(s.name);
  return out;
}

ServiceCatalog with_popularity_tilt(const ServiceCatalog& catalog, double tilt) {
  if (tilt == 0.0) return catalog;
  const std::size_t n = catalog.size();
  std::vector<ServiceIndex> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&catalog](ServiceIndex a, ServiceIndex b) {
                     return catalog[a].urban_rate(Direction::kDownlink) >
                            catalog[b].urban_rate(Direction::kDownlink);
                   });
  std::vector<ServiceSpec> specs = catalog.services();
  for (std::size_t rank = 0; rank < n; ++rank) {
    const double z =
        n > 1 ? 0.5 - static_cast<double>(rank) / static_cast<double>(n - 1)
              : 0.0;
    const double factor = std::exp(tilt * z);
    for (double& rate : specs[order[rank]].urban_weekly_bytes_per_user) {
      rate *= factor;
    }
  }
  return ServiceCatalog(std::move(specs));
}

double default_zipf_exponent(Direction d) noexcept {
  // Tail-law exponents calibrated so the *measured* top-half fit of the
  // assembled 500-service ranking lands on the paper's Fig. 2 values
  // (-1.69 downlink, -1.55 uplink): the catalog head is flatter than the
  // pure law, which biases the joint fit steeper.
  return d == Direction::kDownlink ? 1.49 : 1.49;
}

std::vector<double> full_service_ranking(const ServiceCatalog& catalog,
                                         Direction d, std::size_t total_services,
                                         double zipf_exponent) {
  APPSCOPE_REQUIRE(total_services > catalog.size(),
                   "full_service_ranking: tail must be non-empty");
  if (zipf_exponent == 0.0) zipf_exponent = default_zipf_exponent(d);

  std::vector<double> head;
  head.reserve(catalog.size());
  for (const auto& s : catalog.services()) head.push_back(s.urban_rate(d));
  std::sort(head.begin(), head.end(), std::greater<>());

  std::vector<double> ranking = head;
  ranking.reserve(total_services);
  // Tail continues the head's Zipf law from the last head rank, then decays
  // with a stretched-exponential cutoff past the midpoint (the "bottom
  // half" break in Fig. 2).
  const double anchor_rank = static_cast<double>(head.size());
  const double anchor_volume = head.back();
  const auto cutoff_rank = static_cast<double>(total_services) / 2.0;
  for (std::size_t r = head.size() + 1; r <= total_services; ++r) {
    const double rank = static_cast<double>(r);
    double volume =
        anchor_volume * std::pow(rank / anchor_rank, -zipf_exponent);
    if (rank > cutoff_rank) {
      // Stretched-exponential break calibrated so the full ranking spans
      // ~10 orders of magnitude (Fig. 2's observation).
      const double over = (rank - cutoff_rank) / 35.0;
      volume *= std::exp(-std::pow(over, 1.3));
    }
    ranking.push_back(volume);
  }
  return ranking;
}

}  // namespace appscope::workload
