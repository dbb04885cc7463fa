// Crash consistency of a region campaign: the appscope_region binary is
// killed with SIGKILL at seeded points of a test-scale campaign, over and
// over into one publish root. Each region shard is published like a daemon
// epoch (io::publish writes a temp name, fsyncs and renames it into place,
// then latest.snapshot is republished as a link), and so is the national
// snapshot. After any kill a region's newest snapshot must be absent or
// whole, and a campaign rerun on the same root must reuse only whole
// shards: its outputs equal a cold campaign's, byte for byte. Power loss is
// out of scope: a killed process loses no page cache.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.hpp"
#include "support/temp_dir.hpp"
#include "util/rng.hpp"

namespace appscope::region {
namespace {

namespace fs = std::filesystem;

/// The regions of `--count=4`, in preset order.
const std::vector<std::string> kRegionIds = {"paris", "lyon", "marseille",
                                             "toulouse"};

/// Starts the built appscope_region: a 4-region test-scale campaign into
/// `root`, its report written to <root>/report.md. Its output goes to
/// /dev/null.
pid_t spawn_campaign(const fs::path& root) {
  std::vector<std::string> args = {APPSCOPE_REGION_BINARY, "--scale=test",
                                   "--count=4", "--out=" + root.string(),
                                   "--report=" + (root / "report.md").string()};
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

bool exited_cleanly(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Runs a campaign into `root` to completion and checks that it succeeded;
/// returns its wall time in microseconds.
double timed_campaign(const fs::path& root) {
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = spawn_campaign(root);
  EXPECT_GT(pid, 0) << "fork failed";
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(exited_cleanly(status))
      << "the campaign into " << root << " failed (status " << status << ")";
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool loads(const fs::path& path) {
  try {
    (void)io::read_snapshot(path.string());
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// What a reader or a rerun may rely on after a kill at any point.
void expect_whole(const fs::path& root, const std::string& when) {
  for (const std::string& id : kRegionIds) {
    const std::string found = io::find_latest_snapshot(root.string(), id);
    if (found.empty()) continue;
    EXPECT_FALSE(found.ends_with(".tmp")) << when << ": " << found;
    EXPECT_TRUE(loads(found)) << when << ": " << found << " does not load";
  }
  const fs::path national = root / "national.snapshot";
  if (fs::exists(national)) {
    EXPECT_TRUE(loads(national)) << when << ": national.snapshot does not load";
  }
}

TEST(RegionCrash, KilledCampaignLeavesWholeShardsAndRerunsIdentically) {
  const fs::path cold = test_support::temp_path("region_cold");
  const fs::path root = test_support::temp_path("region_kill");
  fs::remove_all(cold);
  fs::remove_all(root);

  // The reference: a cold campaign in a fresh root, then a warm rerun
  // there (every region reused). Both are timed, so each kill can land
  // inside a campaign whatever the build and the machine's load.
  const double cold_us = timed_campaign(cold);
  const double warm_us = timed_campaign(cold);
  ASSERT_FALSE(::testing::Test::HasFailure());

  util::Rng rng(20261019);
  int killed = 0;
  for (int kill = 0; kill < 8; ++kill) {
    // A seeded point in [5%, 95%) of a campaign's wall time: a warm one's
    // once every region has published, when the rest is the merge, the
    // national write and the report.
    const bool warm = std::ranges::all_of(kRegionIds, [&](const std::string& id) {
      return !io::find_latest_snapshot(root.string(), id).empty();
    });
    const auto delay = std::chrono::microseconds(static_cast<std::int64_t>(
        (warm ? warm_us : cold_us) * rng.uniform(0.05, 0.95)));
    const pid_t pid = spawn_campaign(root);
    ASSERT_GT(pid, 0) << "fork failed";
    std::this_thread::sleep_for(delay);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    const std::string when = "kill " + std::to_string(kill) + " after " +
                             std::to_string(delay.count()) + " us";
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
      ++killed;
    } else {
      ASSERT_TRUE(exited_cleanly(status))
          << when << ": the campaign failed (status " << status << ")";
    }
    expect_whole(root, when);
  }
  EXPECT_GT(killed, 0) << "every campaign finished before its kill";

  // A rerun over whatever the kills left completes, and reuses only whole
  // shards: every output equals the cold campaign's.
  timed_campaign(root);
  ASSERT_FALSE(::testing::Test::HasFailure());
  std::vector<fs::path> outputs = {"report.md", "national.snapshot"};
  for (const std::string& id : kRegionIds) {
    outputs.push_back(fs::path(id) / "latest.snapshot");
  }
  for (const fs::path& output : outputs) {
    EXPECT_TRUE(file_bytes(root / output) == file_bytes(cold / output))
        << output << " differs from the cold campaign's";
  }
  fs::remove_all(root);
  fs::remove_all(cold);
}

}  // namespace
}  // namespace appscope::region
