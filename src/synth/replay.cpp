#include "synth/replay.hpp"

#include <cmath>
#include <thread>

#include "ts/calendar.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace appscope::synth {
namespace {

/// Buckets a row stream into per-hour event lists. Receives rows in the
/// generator's deterministic (commune, service) order, so each hour bucket
/// is ordered the same way.
class EventStagingSink final : public TrafficSink {
 public:
  EventStagingSink(std::size_t events_per_cell,
                   std::vector<std::vector<net::ServiceEvent>>& hours)
      : events_per_cell_(events_per_cell), hours_(hours) {}

  void consume(const TrafficCell& cell) override {
    throw util::PreconditionError(
        "EventStagingSink: the analytic generator emits rows, not cells");
  }

  void consume_row(const TrafficRow& row) override {
    net::ServiceEvent proto;
    proto.commune = row.commune;
    proto.service = static_cast<std::uint16_t>(row.service);
    proto.urbanization = static_cast<std::uint8_t>(row.urbanization);
    for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
      const auto dl = quantize(row.downlink_bytes[h]);
      const auto ul = quantize(row.uplink_bytes[h]);
      if (dl == 0 && ul == 0) continue;
      downlink_ += dl;
      uplink_ += ul;
      proto.timestamp = static_cast<net::Timestamp>(h) * net::kSecondsPerHour;
      split_into(hours_[h], proto, dl, ul);
    }
  }

  net::Bytes downlink() const noexcept { return downlink_; }
  net::Bytes uplink() const noexcept { return uplink_; }

 private:
  static net::Bytes quantize(double volume) {
    return volume <= 0.0 ? 0 : static_cast<net::Bytes>(std::llround(volume));
  }

  /// Splits (dl, ul) over events_per_cell_ events: each gets the even share,
  /// the first `remainder` events one extra byte — exact conservation.
  void split_into(std::vector<net::ServiceEvent>& bucket,
                  net::ServiceEvent proto, net::Bytes dl, net::Bytes ul) {
    const auto n = static_cast<net::Bytes>(events_per_cell_);
    for (net::Bytes i = 0; i < n; ++i) {
      proto.downlink_bytes = dl / n + (i < dl % n ? 1 : 0);
      proto.uplink_bytes = ul / n + (i < ul % n ? 1 : 0);
      bucket.push_back(proto);
    }
  }

  std::size_t events_per_cell_;
  std::vector<std::vector<net::ServiceEvent>>& hours_;
  net::Bytes downlink_ = 0;
  net::Bytes uplink_ = 0;
};

}  // namespace

EventReplaySource::EventReplaySource(const geo::Territory& territory,
                                     const workload::SubscriberBase& subscribers,
                                     const workload::ServiceCatalog& catalog,
                                     const ScenarioConfig& config,
                                     std::size_t events_per_cell) {
  APPSCOPE_REQUIRE(events_per_cell >= 1,
                   "EventReplaySource: events_per_cell must be >= 1");
  util::StageTimer timer("serve.replay.stage");

  std::vector<std::vector<net::ServiceEvent>> hours(ts::kHoursPerWeek);
  EventStagingSink staging(events_per_cell, hours);
  const AnalyticGenerator generator(territory, subscribers, catalog,
                                    config.traffic_seed,
                                    config.temporal_noise_sigma);
  generator.generate(staging);
  staged_downlink_ = staging.downlink();
  staged_uplink_ = staging.uplink();

  std::size_t total = 0;
  for (const auto& bucket : hours) total += bucket.size();
  events_.reserve(total);
  hour_begin_.reserve(ts::kHoursPerWeek + 1);
  for (const auto& bucket : hours) {
    hour_begin_.push_back(events_.size());
    events_.insert(events_.end(), bucket.begin(), bucket.end());
  }
  hour_begin_.push_back(events_.size());
  timer.add_items(events_.size());
}

std::span<const net::ServiceEvent> EventReplaySource::hour_events(
    std::size_t week_hour) const {
  APPSCOPE_REQUIRE(week_hour < ts::kHoursPerWeek,
                   "EventReplaySource: week hour out of range");
  return {events_.data() + hour_begin_[week_hour],
          hour_begin_[week_hour + 1] - hour_begin_[week_hour]};
}

RatePacer::RatePacer(double events_per_second)
    : rate_(events_per_second), start_(std::chrono::steady_clock::now()) {
  APPSCOPE_REQUIRE(events_per_second >= 0.0,
                   "RatePacer: negative target rate");
}

void RatePacer::await(std::uint64_t n) {
  emitted_ += n;
  if (rate_ <= 0.0) return;
  const auto due =
      start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(
                       static_cast<double>(emitted_) / rate_));
  const auto now = std::chrono::steady_clock::now();
  if (due > now) std::this_thread::sleep_until(due);
}

}  // namespace appscope::synth
