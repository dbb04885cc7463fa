#include "serve/epoch.hpp"

#include <filesystem>
#include <system_error>

#include "io/publish.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace appscope::serve {

namespace fs = std::filesystem;

EpochSealer::EpochSealer(std::string directory,
                         const synth::ScenarioConfig& config,
                         const geo::Territory& territory,
                         const workload::SubscriberBase& subscribers,
                         const workload::ServiceCatalog& catalog)
    : directory_(std::move(directory)),
      config_(config),
      territory_(territory),
      subscribers_(subscribers),
      catalog_(catalog) {
  APPSCOPE_REQUIRE(!directory_.empty(), "EpochSealer: empty directory");
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    throw util::InputError("EpochSealer: cannot create " + directory_ + ": " +
                           ec.message());
  }
}

std::string EpochSealer::latest_path() const {
  return (fs::path(directory_) / "latest.snapshot").string();
}

SealedEpoch EpochSealer::seal(std::uint64_t index,
                              const EventAggregates& rolling) {
  util::ScopedSpan span("serve.epoch.seal");
  util::StageTimer timer("serve.epoch.seal");

  SealedEpoch sealed;
  sealed.index = index;
  sealed.events = rolling.events();
  sealed.path = (fs::path(directory_) / io::epoch_filename(index)).string();
  sealed.stats = io::write_snapshot(sealed.path, config_, territory_,
                                    subscribers_, catalog_,
                                    rolling.convert<double>());
  // A reader either maps the previous complete snapshot or the new one,
  // never a partial write; no bytes are copied.
  io::publish_link(sealed.path, latest_path());

  if (util::MetricsRegistry::enabled()) {
    auto& registry = util::MetricsRegistry::global();
    registry.add("serve.epochs.sealed");
    registry.add("serve.epoch.bytes_written", sealed.stats.bytes);
  }
  timer.add_bytes(sealed.stats.bytes);
  timer.add_items(1);
  return sealed;
}

}  // namespace appscope::serve
