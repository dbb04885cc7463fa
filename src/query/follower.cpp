#include "query/follower.hpp"

#include <sys/stat.h>

#include <utility>

#include "io/snapshot.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace appscope::query {

Follower::Follower(std::string directory) : directory_(std::move(directory)) {}

Follower::Published Follower::stat_published(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    throw util::InputError("query: cannot stat snapshot " + path);
  }
  Published p;
  p.path = path;
  p.device = static_cast<std::uint64_t>(st.st_dev);
  p.inode = static_cast<std::uint64_t>(st.st_ino);
  p.size = static_cast<std::uint64_t>(st.st_size);
  p.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
               st.st_mtim.tv_nsec;
  return p;
}

std::shared_ptr<const SnapshotView> Follower::refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  // Bounded retry: the sealer can republish latest.snapshot between our
  // resolve and open, or between stat and open — each retry re-resolves,
  // and every published file is complete (write-to-temp + atomic rename),
  // so persistent failure means real corruption.
  constexpr int kAttempts = 3;
  for (int attempt = 0;; ++attempt) {
    const std::string path = io::find_latest_snapshot(directory_);
    if (path.empty()) {
      throw util::InputError("query: no snapshot in " + directory_);
    }
    try {
      const Published now = stat_published(path);
      if (view_ != nullptr && now == loaded_) return view_;
      auto next = std::make_shared<const SnapshotView>(path);
      view_ = std::move(next);
      loaded_ = now;
      ++reloads_;
      if (util::MetricsRegistry::enabled()) {
        util::MetricsRegistry::global().add("query.follower.reloads");
      }
      return view_;
    } catch (const util::InputError&) {
      if (attempt + 1 >= kAttempts) throw;
    }
  }
}

std::shared_ptr<const SnapshotView> Follower::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_;
}

std::uint64_t Follower::reloads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reloads_;
}

}  // namespace appscope::query
