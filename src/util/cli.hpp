// appscope/util/cli.hpp
//
// Minimal command-line option parser shared by the bench and example
// binaries: supports "--flag", "--key=value" and positional arguments, with
// typed accessors. A binary that declares its flags gets strict parsing
// (unknown flags are typed errors) and a --help listing generated from the
// declaration.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace appscope::util {

class CliArgs {
 public:
  /// Parses argv; never throws (malformed tokens become positionals).
  CliArgs(int argc, char** argv);

  /// Parses argv against the flags a binary declares: every "--name" must be
  /// in `flags` or be "--help", and positional arguments are rejected.
  /// Throws InputError naming the first argument that is neither.
  CliArgs(int argc, char** argv, std::vector<std::string> flags);

  /// A usage line, then each declared flag on a line of its own.
  std::string help() const;

  const std::string& program() const noexcept { return program_; }

  /// True if "--name" or "--name=..." was given.
  bool has(std::string_view name) const noexcept;

  /// Value of "--name=value", if present.
  std::optional<std::string> value(std::string_view name) const noexcept;

  /// Typed accessors with defaults; throw InputError on malformed values.
  std::string get_string(std::string_view name, std::string default_value) const;
  std::int64_t get_int(std::string_view name, std::int64_t default_value) const;
  double get_double(std::string_view name, double default_value) const;

  /// "--name=N" as a count of unsigned type T. Throws InputError when N is
  /// negative or exceeds T's range, which a cast would silently wrap.
  template <std::unsigned_integral T>
  T get_count(std::string_view name, T default_value) const {
    return static_cast<T>(
        checked_count(name, default_value, std::numeric_limits<T>::max()));
  }

  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

 private:
  struct Option {
    std::string name;
    std::optional<std::string> value;
  };

  std::uint64_t checked_count(std::string_view name,
                              std::uint64_t default_value,
                              std::uint64_t max) const;

  std::string program_;
  std::vector<Option> options_;
  std::vector<std::string> positionals_;
  std::vector<std::string> declared_;
};

}  // namespace appscope::util
