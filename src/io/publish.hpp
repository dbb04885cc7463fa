// appscope/io/publish.hpp
//
// Atomic, durable file publication. Every snapshot appscope writes — a
// saved dataset, a sealed epoch, a region shard, the national merge — goes
// through publish(), so a reader that resolves a path finds either the
// previous complete file or the new one, never a partial write. The new
// file is a new inode, so a reader that mapped the previous one keeps
// reading it unchanged.
#pragma once

#include <functional>
#include <string>

namespace appscope::io {

/// Writes `path` atomically: `write` fills `<path>.tmp`, which is fsynced
/// and renamed over `path`; then the directory is fsynced. On failure the
/// temp file is removed; I/O errors throw util::InputError, and exceptions
/// from `write` propagate.
void publish(const std::string& path,
             const std::function<void(const std::string& tmp)>& write);

/// Republishes `link_path` as a second name of the published file `target`
/// in the same directory: a hard link at `<link_path>.tmp` is renamed over
/// `link_path` and the directory fsynced. No bytes are copied. Throws
/// util::InputError on failure.
void publish_link(const std::string& target, const std::string& link_path);

}  // namespace appscope::io
