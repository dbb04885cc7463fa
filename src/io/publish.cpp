#include "io/publish.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <system_error>

#include "util/error.hpp"

namespace appscope::io {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail(const fs::path& path, const std::string& what) {
  throw util::InputError("publish: " + path.string() + ": " + what);
}

void fsync_path(const fs::path& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) fail(path, "cannot open for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail(path, "fsync failed");
}

/// Renames `tmp` over `path`, then fsyncs the directory so the new name
/// survives a crash.
void rename_into_place(const fs::path& tmp, const fs::path& path) {
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    fail(path, "cannot rename into place: " + ec.message());
  }
  const fs::path dir = path.parent_path();
  fsync_path(dir.empty() ? fs::path(".") : dir, O_RDONLY | O_DIRECTORY);
}

}  // namespace

void publish(const std::string& path,
             const std::function<void(const std::string& tmp)>& write) {
  const fs::path tmp(path + ".tmp");
  try {
    write(tmp.string());
    fsync_path(tmp, O_RDONLY);
  } catch (...) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw;
  }
  rename_into_place(tmp, path);
}

void publish_link(const std::string& target, const std::string& link_path) {
  const fs::path tmp(link_path + ".tmp");
  std::error_code ec;
  fs::remove(tmp, ec);  // left behind by an interrupted publish
  fs::create_hard_link(target, tmp, ec);
  if (ec) fail(link_path, "cannot link " + target + ": " + ec.message());
  rename_into_place(tmp, link_path);
}

}  // namespace appscope::io
