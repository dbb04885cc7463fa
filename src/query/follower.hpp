// appscope/query/follower.hpp
//
// Refresh-on-publish: tracks the appscope_serve daemon's publish point
// (`latest.snapshot`, atomically renamed into place at each epoch seal) and
// hands out a shared SnapshotView of the newest sealed snapshot. refresh()
// re-resolves the publish point; when the published file changed it opens a
// new view and swaps it in, with a bounded retry against the find/open race.
// Readers keep their shared_ptr for as long as a query runs, so a republish
// never invalidates an in-flight scan.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "query/snapshot_view.hpp"

namespace appscope::query {

class Follower {
 public:
  explicit Follower(std::string directory);

  /// Re-resolves the directory's publish point and returns a view of the
  /// newest sealed snapshot, reloading only when the published file
  /// changed. Thread-safe. Throws util::InputError when the directory
  /// holds no loadable snapshot.
  std::shared_ptr<const SnapshotView> refresh();

  /// The last view refresh() produced (nullptr before the first refresh).
  std::shared_ptr<const SnapshotView> current() const;

  /// Number of times refresh() actually swapped in a new snapshot.
  std::uint64_t reloads() const;

 private:
  /// What identifies one publish. A publish renames a new file into
  /// place, so its inode differs from the loaded one (which the loaded
  /// view keeps open) even when size and mtime match: two publishes
  /// within one tick of the filesystem's coarse clock share an mtime.
  struct Published {
    std::string path;
    std::uint64_t device = 0;
    std::uint64_t inode = 0;
    std::uint64_t size = 0;
    std::int64_t mtime_ns = 0;

    bool operator==(const Published&) const = default;
  };

  static Published stat_published(const std::string& path);

  const std::string directory_;
  mutable std::mutex mu_;
  Published loaded_;
  std::shared_ptr<const SnapshotView> view_;
  std::uint64_t reloads_ = 0;
};

}  // namespace appscope::query
