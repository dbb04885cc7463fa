#include "core/dataset.hpp"

#include <cmath>

#include "io/snapshot.hpp"
#include "util/error.hpp"

namespace appscope::core {

TrafficDataset::TrafficDataset(
    synth::ScenarioConfig config, std::shared_ptr<const geo::Territory> territory,
    std::shared_ptr<const workload::SubscriberBase> subscribers,
    std::shared_ptr<const workload::ServiceCatalog> catalog)
    : config_(std::move(config)),
      territory_(std::move(territory)),
      subscribers_(std::move(subscribers)),
      catalog_(std::move(catalog)),
      class_subscribers_(subscribers_->class_totals(*territory_)) {}

TrafficDataset TrafficDataset::generate(const synth::ScenarioConfig& config) {
  auto territory = std::make_shared<const geo::Territory>(
      geo::build_synthetic_country(config.country));
  auto subscribers = std::make_shared<const workload::SubscriberBase>(
      *territory, config.population);
  // The analytic path honors the scenario's regional popularity skew; the
  // event-level path (from_usage_records) takes its catalog from the caller.
  auto catalog = std::make_shared<const workload::ServiceCatalog>(
      workload::with_popularity_tilt(workload::ServiceCatalog::paper_services(),
                                     config.popularity_tilt));

  TrafficDataset dataset(config, territory, subscribers, catalog);
  std::unique_ptr<workload::PresenceModel> presence;
  if (config.enable_mobility) {
    presence = std::make_unique<workload::PresenceModel>(*territory, *subscribers,
                                                         config.mobility);
  }
  const synth::AnalyticGenerator generator(*territory, *subscribers, *catalog,
                                           config.traffic_seed,
                                           config.temporal_noise_sigma,
                                           presence.get());
  synth::AggregateSink sink(catalog->size(), territory->size());
  generator.generate(sink);
  dataset.tables_ = std::move(sink).take();
  return dataset;
}

TrafficDataset TrafficDataset::from_usage_records(
    const synth::ScenarioConfig& config, const geo::Territory& territory,
    const workload::SubscriberBase& subscribers,
    const workload::ServiceCatalog& catalog,
    const std::vector<net::UsageRecord>& records) {
  // Copy the shared inputs into owned snapshots so the dataset is
  // self-contained like the generated variant.
  auto territory_copy = std::make_shared<const geo::Territory>(territory);
  auto subscribers_copy =
      std::make_shared<const workload::SubscriberBase>(subscribers);
  auto catalog_copy = std::make_shared<const workload::ServiceCatalog>(catalog);

  TrafficDataset dataset(config, territory_copy, subscribers_copy, catalog_copy);
  // Each record is one hour of one service in one commune: it adds into one
  // hour of its national and class series, its commune total and the grand
  // totals, in record order.
  constexpr workload::Direction kDown = workload::Direction::kDownlink;
  constexpr workload::Direction kUp = workload::Direction::kUplink;
  synth::AggregateTables<double>& t = dataset.tables_;
  t = synth::AggregateTables<double>(catalog.size(), territory.size());
  for (const net::UsageRecord& r : records) {
    if (!r.service) continue;  // unclassified traffic: not per-service data
    APPSCOPE_REQUIRE(r.week_hour < ts::kHoursPerWeek,
                     "from_usage_records: week hour past the end of the week");
    const workload::ServiceIndex s = *r.service;
    const geo::Urbanization u = territory.commune(r.commune).urbanization;
    const std::size_t h = r.week_hour;
    const auto down = static_cast<double>(r.downlink_bytes);
    const auto up = static_cast<double>(r.uplink_bytes);
    t.national_row(s, kDown)[h] += down;
    t.national_row(s, kUp)[h] += up;
    t.commune_row(s, kDown)[r.commune] += down;
    t.commune_row(s, kUp)[r.commune] += up;
    t.urbanization_row(s, u, kDown)[h] += down;
    t.urbanization_row(s, u, kUp)[h] += up;
    t.downlink_total += down;
    t.uplink_total += up;
    ++t.cells;
  }
  return dataset;
}

void TrafficDataset::save(const std::string& path) const {
  io::write_snapshot(path, config_, *territory_, *subscribers_, *catalog_,
                     tables_);
}

TrafficDataset TrafficDataset::load(const std::string& path) {
  return from_snapshot(io::read_snapshot(path), path);
}

TrafficDataset TrafficDataset::from_snapshot(io::LoadedSnapshot snap,
                                             const std::string& context) {
  TrafficDataset dataset(std::move(snap.config), std::move(snap.territory),
                         std::move(snap.subscribers), std::move(snap.catalog));
  if (snap.aggregates.layout() !=
      synth::AggregateLayout{dataset.service_count(), dataset.commune_count()}) {
    throw util::InputError("snapshot: " + context +
                           ": aggregate tables disagree with the stored "
                           "territory/catalog dimensions");
  }
  dataset.tables_ = std::move(snap.aggregates);
  return dataset;
}

std::span<const double> TrafficDataset::national_series(
    workload::ServiceIndex service, workload::Direction d) const {
  return tables_.national_row(service, d);
}

double TrafficDataset::commune_total(workload::ServiceIndex service,
                                     geo::CommuneId commune,
                                     workload::Direction d) const {
  APPSCOPE_REQUIRE(commune < commune_count(),
                   "TrafficDataset: commune out of range");
  return tables_.commune_row(service, d)[commune];
}

std::vector<double> TrafficDataset::commune_totals(workload::ServiceIndex service,
                                                   workload::Direction d) const {
  const std::span<const double> row = tables_.commune_row(service, d);
  return std::vector<double>(row.begin(), row.end());
}

std::vector<double> TrafficDataset::per_user_commune_vector(
    workload::ServiceIndex service, workload::Direction d) const {
  std::vector<double> v = commune_totals(service, d);
  for (std::size_t c = 0; c < v.size(); ++c) {
    v[c] /= static_cast<double>(
        subscribers_->subscribers(static_cast<geo::CommuneId>(c)));
  }
  return v;
}

std::span<const double> TrafficDataset::urbanization_series(
    workload::ServiceIndex service, geo::Urbanization u,
    workload::Direction d) const {
  return tables_.urbanization_row(service, u, d);
}

std::vector<double> TrafficDataset::per_user_urbanization_series(
    workload::ServiceIndex service, geo::Urbanization u,
    workload::Direction d) const {
  const std::span<const double> raw = urbanization_series(service, u, d);
  const auto subs = class_subscribers_[static_cast<std::size_t>(u)];
  APPSCOPE_REQUIRE(subs > 0, "per_user_urbanization_series: empty class");
  std::vector<double> out(raw.size());
  for (std::size_t h = 0; h < raw.size(); ++h) {
    out[h] = raw[h] / static_cast<double>(subs);
  }
  return out;
}

double TrafficDataset::national_total(workload::ServiceIndex service,
                                      workload::Direction d) const {
  double total = 0.0;
  for (const double v : national_series(service, d)) total += v;
  return total;
}

double TrafficDataset::direction_total(workload::Direction d) const {
  return d == workload::Direction::kDownlink ? tables_.downlink_total
                                             : tables_.uplink_total;
}

void TrafficDataset::validate() const {
  const double tol =
      1e-6 * (tables_.downlink_total + tables_.uplink_total + 1.0);
  for (const auto d :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    double national_sum = 0.0;
    double commune_sum = 0.0;
    double class_sum = 0.0;
    for (std::size_t s = 0; s < catalog_->size(); ++s) {
      for (const double v : national_series(s, d)) {
        APPSCOPE_CHECK(v >= 0.0, "dataset: negative national volume");
        national_sum += v;
      }
      for (const double v : tables_.commune_row(s, d)) {
        APPSCOPE_CHECK(v >= 0.0, "dataset: negative commune volume");
        commune_sum += v;
      }
      for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
        for (const double v :
             urbanization_series(s, static_cast<geo::Urbanization>(u), d)) {
          class_sum += v;
        }
      }
    }
    APPSCOPE_CHECK(std::abs(national_sum - commune_sum) <= tol,
                   "dataset: national/commune aggregate mismatch");
    APPSCOPE_CHECK(std::abs(national_sum - class_sum) <= tol,
                   "dataset: national/urbanization aggregate mismatch");
    APPSCOPE_CHECK(std::abs(national_sum - direction_total(d)) <= tol,
                   "dataset: national/grand-total mismatch");
  }
}

}  // namespace appscope::core
