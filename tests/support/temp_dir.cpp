#include "support/temp_dir.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <system_error>

namespace appscope::test_support {

namespace fs = std::filesystem;

namespace {

/// Owns <tmp>/appscope_<pid>: cleared on first use (a crashed process with
/// the same pid may have left it behind) and removed at exit.
class ProcessRoot {
 public:
  ProcessRoot()
      : path_(fs::temp_directory_path() /
              ("appscope_" + std::to_string(::getpid()))) {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ~ProcessRoot() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ProcessRoot(const ProcessRoot&) = delete;
  ProcessRoot& operator=(const ProcessRoot&) = delete;

  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

/// <tmp>/appscope_<pid>/<Suite>.<Test>/, created on first use ("global" in
/// place of the test name outside a running test).
fs::path temp_dir() {
  static const ProcessRoot root;
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = test == nullptr ? std::string("global")
                                     : std::string(test->test_suite_name()) +
                                           "." + test->name();
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized tests
  const fs::path dir = root.path() / name;
  fs::create_directories(dir);
  return dir;
}

}  // namespace

fs::path temp_path(const std::string& name) { return temp_dir() / name; }

}  // namespace appscope::test_support
