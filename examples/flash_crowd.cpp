// flash_crowd — extending the library with a custom aggregation sink.
//
// The built-in dataset keeps commune-level *weekly* totals (what the paper's
// analyses need). This example shows the sink extension point: capture one
// commune's full hourly series, inject a synthetic flash crowd (a stadium
// event tripling traffic for two hours), and let the smoothed z-score
// detector — the same tool the paper uses for national topical times — pick
// the anomaly out of the commune's local rhythm.
//
// Run:  ./flash_crowd
#include <algorithm>
#include <iostream>

#include "geo/territory.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "ts/peaks.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"

using namespace appscope;

namespace {

/// A sink that records the hourly downlink series of one commune, summed
/// over all services.
class CommuneSeriesSink final : public synth::TrafficSink {
 public:
  explicit CommuneSeriesSink(geo::CommuneId commune)
      : commune_(commune), series_(ts::kHoursPerWeek, 0.0) {}

  void consume_row(const synth::TrafficRow& row) override {
    if (row.commune != commune_) return;
    for (std::size_t h = 0; h < series_.size(); ++h) {
      series_[h] += row.downlink_bytes[h];
    }
  }

  const std::vector<double>& series() const noexcept { return series_; }

 private:
  geo::CommuneId commune_;
  std::vector<double> series_;
};

}  // namespace

int main() {
  std::cout << util::rule("appscope example: flash-crowd detection") << "\n";

  const synth::ScenarioConfig config = synth::ScenarioConfig::test_scale();
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();

  // Pick a mid-sized semi-urban commune (a stadium town).
  geo::CommuneId venue = 0;
  for (const auto& c : territory.communes()) {
    if (c.urbanization == geo::Urbanization::kSemiUrban) {
      venue = c.id;
      break;
    }
  }
  std::cout << "venue commune: " << territory.commune(venue).name << " ("
            << territory.commune(venue).population << " residents)\n";

  CommuneSeriesSink sink(venue);
  const synth::AnalyticGenerator generator(territory, subscribers, catalog,
                                           config.traffic_seed,
                                           config.temporal_noise_sigma);
  generator.generate(sink);

  // Saturday 20-22h: the match. Social and video traffic triples.
  std::vector<double> series = sink.series();
  const std::size_t kickoff = 20;
  for (std::size_t h = kickoff; h < kickoff + 2; ++h) series[h] *= 3.0;

  const ts::PeakDetection det = ts::detect_peaks(series, {});
  std::cout << "\ncommune traffic (Sat -> Fri), flash crowd injected Sat "
            << kickoff << "h:\n";
  std::cout << util::ascii_chart(series, 9, 168);
  std::string marks(series.size(), ' ');
  for (const std::size_t f : det.rising_fronts) marks[f] = '^';
  std::cout << "   " << marks << "\n\n";

  util::TextTable table({"detected surge", "day", "hour", "above baseline"});
  for (const auto& interval : det.intervals) {
    const std::size_t apex = ts::interval_apex(det, interval);
    const ts::WeekHour wh = ts::week_hour(apex);
    table.add_row({std::to_string(interval.begin) + ".." +
                       std::to_string(interval.end - 1),
                   std::string(ts::day_name(wh.day())),
                   std::to_string(wh.hour_of_day()),
                   util::format_percent(
                       det.processed[apex] / det.smoothed[apex] - 1.0, 0)});
  }
  table.render(std::cout);

  const bool caught = std::any_of(
      det.intervals.begin(), det.intervals.end(), [&](const auto& interval) {
        const auto apex = ts::interval_apex(det, interval);
        return apex >= kickoff && apex < kickoff + 3;
      });
  std::cout << "\nflash crowd " << (caught ? "DETECTED" : "missed")
            << " — same detector, new workload: that is the point of a\n"
               "reusable analysis library.\n";
  return caught ? 0 : 1;
}
