// Crash consistency of epoch sealing: the appscope_serve binary is killed
// with SIGKILL at seeded points while it seals hourly epochs, and every
// file it leaves behind must be whole. io::publish writes a temp name,
// fsyncs and renames it into place; latest.snapshot is a hard link
// republished the same way. A kill between any two of those steps must
// leave readers the previous complete file or the new one, and a daemon
// restarted in the same directory must succeed. Power loss is out of
// scope: a killed process loses no page cache.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.hpp"
#include "serve/daemon.hpp"
#include "support/temp_dir.hpp"
#include "util/rng.hpp"

namespace appscope::serve {
namespace {

namespace fs = std::filesystem;

/// Starts the built appscope_serve on `dir`: test scale, unthrottled,
/// hourly seals, more weeks than any kill delay lets it finish. Its output
/// goes to /dev/null.
pid_t spawn_daemon(const fs::path& dir) {
  std::vector<std::string> args = {APPSCOPE_SERVE_BINARY, "--scale=test",
                                   "--weeks=100",
                                   "--snapshot-dir=" + dir.string()};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    if (null >= 0) {
      ::dup2(null, STDOUT_FILENO);
      ::dup2(null, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

bool loads(const fs::path& path) {
  try {
    (void)io::read_snapshot(path.string());
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// What a reader may rely on after a kill at any point of a seal.
void expect_whole(const fs::path& dir, const std::string& when) {
  // The daemon creates its directory once the week is staged, so a kill
  // before that leaves nothing to read.
  if (!fs::exists(dir)) return;
  const std::string found = io::find_latest_snapshot(dir.string());
  if (!found.empty()) {
    EXPECT_FALSE(found.ends_with(".tmp")) << when << ": " << found;
    EXPECT_TRUE(loads(found)) << when << ": " << found << " does not load";
  }
  std::vector<fs::path> epochs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("epoch_") && name.ends_with(".snapshot")) {
      epochs.push_back(entry.path());
    }
  }
  const fs::path latest = dir / "latest.snapshot";
  if (fs::exists(latest)) {
    EXPECT_TRUE(loads(latest)) << when << ": latest.snapshot does not load";
    EXPECT_TRUE(std::ranges::any_of(epochs, [&](const fs::path& epoch) {
      return fs::equivalent(epoch, latest);
    })) << when << ": latest.snapshot is no epoch file's link";
  }
  for (const fs::path& epoch : epochs) {
    EXPECT_TRUE(loads(epoch)) << when << ": " << epoch << " does not load";
  }
}

TEST(SealCrash, KilledDaemonLeavesWholeSnapshotsAndRestarts) {
  const fs::path dir = test_support::temp_path("kill");
  fs::remove_all(dir);
  util::Rng rng(20261018);
  for (int kill = 0; kill < 8; ++kill) {
    const auto delay =
        std::chrono::milliseconds(250 + rng.uniform_index(651));  // [250, 900]
    const pid_t pid = spawn_daemon(dir);
    ASSERT_GT(pid, 0) << "fork failed";
    std::this_thread::sleep_for(delay);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    const std::string when = "kill " + std::to_string(kill) + " after " +
                             std::to_string(delay.count()) + " ms";
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << when << ": the daemon ended before the kill (status " << status
        << ")";
    expect_whole(dir, when);
  }

  // A daemon restarted over whatever the kills left runs to completion.
  ServeConfig config;
  config.snapshot_dir = dir.string();
  IngestDaemon daemon(config);
  const ServeStats stats = daemon.run();
  EXPECT_EQ(stats.epochs_sealed, 168u);
  EXPECT_TRUE(loads(stats.latest_snapshot));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace appscope::serve
