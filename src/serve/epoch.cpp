#include "serve/epoch.hpp"

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "io/publish.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace appscope::serve {

namespace fs = std::filesystem;

namespace {

/// `sealer`, with its directory emptied of the files an earlier run sealed
/// there: the directory belongs to one run, and a run restarted where a
/// longer one was killed must not leave that run's later epochs beside its
/// own (where io::find_latest_snapshot's fallback would pick them).
/// latest.snapshot goes first, then the epoch files and the temp files a
/// kill left, so a kill in between leaves what a kill mid-seal can leave
/// already: whole epochs without latest.snapshot, or no snapshot at all.
/// Only regular files are removed.
EpochSealer owning_directory(EpochSealer sealer) {
  const fs::path directory = fs::path(sealer.latest_path()).parent_path();
  const auto fail = [](const std::string& what, const std::error_code& ec) {
    throw util::InputError("BackgroundSealer: cannot " + what + ": " +
                           ec.message());
  };
  std::vector<fs::path> stale;
  std::error_code ec;
  for (fs::directory_iterator it(directory, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    std::error_code file_ec;
    if (!it->is_regular_file(file_ec)) continue;
    if (name == "latest.snapshot") {
      stale.insert(stale.begin(), it->path());
    } else if ((name.starts_with("epoch_") && name.ends_with(".snapshot")) ||
               name.ends_with(".snapshot.tmp")) {
      stale.push_back(it->path());
    }
  }
  if (ec) fail("list " + directory.string(), ec);
  for (const fs::path& path : stale) {
    if (!fs::remove(path, ec) && ec) fail("remove " + path.string(), ec);
  }
  return sealer;
}

}  // namespace

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

void record_publication(std::uint64_t index, SteadyTime barrier,
                        const std::vector<SteadyTime>& enqueue_marks) {
  if (!util::MetricsRegistry::enabled()) return;
  auto& registry = util::MetricsRegistry::global();
  const SteadyTime now = std::chrono::steady_clock::now();
  registry.observe("serve.epoch.seal_wall_seconds",
                   std::chrono::duration<double>(now - barrier).count());
  for (const SteadyTime mark : enqueue_marks) {
    registry.observe("serve.ingest.enqueue_to_seal",
                     std::chrono::duration<double>(now - mark).count());
  }
  registry.gauge("serve.epoch.last_index", static_cast<double>(index));
}

BackgroundSealer::BackgroundSealer(EpochSealer sealer, std::size_t services,
                                   std::size_t communes)
    : sealer_(owning_directory(std::move(sealer))),
      span_context_(util::current_span_context()),
      buffer_(services, communes),
      thread_([this] { loop(); }) {}

BackgroundSealer::~BackgroundSealer() { close(); }

double BackgroundSealer::submit(std::uint64_t index,
                                const EventAggregates& rolling,
                                SteadyTime barrier,
                                std::vector<SteadyTime>& enqueue_marks) {
  std::unique_lock lock(mutex_);
  APPSCOPE_REQUIRE(!closing_, "BackgroundSealer: submit() after finish()");
  double waited = 0.0;
  if (pending_) {
    const SteadyTime start = std::chrono::steady_clock::now();
    cv_.wait(lock, [this] { return !pending_; });
    waited = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  }
  if (failure_) std::rethrow_exception(failure_);
  buffer_ = rolling;  // same shape: the copy reuses the buffer's storage
  index_ = index;
  barrier_ = barrier;
  marks_.swap(enqueue_marks);
  pending_ = true;
  cv_.notify_all();
  return waited;
}

void BackgroundSealer::finish() {
  close();
  if (failure_) std::rethrow_exception(failure_);
}

void BackgroundSealer::close() {
  {
    const std::lock_guard lock(mutex_);
    closing_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void BackgroundSealer::loop() {
  const util::SpanContextScope context(span_context_);
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return pending_ || closing_; });
    if (!pending_) return;
    lock.unlock();
    std::exception_ptr failure;
    try {
      sealer_.seal(index_, buffer_);
      record_publication(index_, barrier_, marks_);
    } catch (...) {
      failure = std::current_exception();
    }
    marks_.clear();
    lock.lock();
    if (failure) failure_ = failure;
    pending_ = false;
    cv_.notify_all();
  }
}

}  // namespace appscope::serve
