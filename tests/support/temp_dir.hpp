// Scratch paths for tests, unique to the process and the running test.
// gtest_discover_tests runs every test case in its own process and
// `ctest -j` runs those processes side by side, so a fixed name under
// temp_directory_path() lets one case rewrite a file that another case has
// mapped.
#pragma once

#include <filesystem>
#include <string>

namespace appscope::test_support {

/// <tmp>/appscope_<pid>/<Suite>.<Test>/<name>; the directory is created on
/// first use ("global" in place of the test name outside a running test).
/// The whole <tmp>/appscope_<pid>/ tree is removed when the process exits.
std::filesystem::path temp_path(const std::string& name);

}  // namespace appscope::test_support
