// appscope/util/cli.hpp
//
// Minimal command-line option parser shared by the bench and example
// binaries: supports switches ("--flag"), valued flags ("--key=value") and
// positional arguments, with typed accessors. A binary that declares its
// flags gets strict parsing (unknown flags are typed errors) and a --help
// listing generated from the declaration. Either way a switch given a value,
// or a valued flag given none, is a typed error where it is read.
#pragma once

#include <algorithm>
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

  /// True if the switch "--name" was given. Throws InputError when it was
  /// given a value ("--name=..."): a switch takes none.
  bool has(std::string_view name) const;

  /// Value of "--name=value", if present (raw: a bare "--name" reads as
  /// absent).
  std::optional<std::string> value(std::string_view name) const noexcept;

  /// Accessors with defaults: the value of "--name=..." when given, else
  /// `default_value`. Each throws InputError when "--name" is given without
  /// a value; the typed ones below also on a malformed value or one outside
  /// their range.
  std::string get_string(std::string_view name, std::string default_value) const;

  /// "--name=N" as an integer in [min, max]; the default is returned as
  /// given when the flag is absent (it may be a sentinel outside the range).
  /// Throws InputError naming the flag when N is outside the range, which a
  /// narrowing cast would wrap.
  std::int64_t get_int(std::string_view name, std::int64_t default_value,
                       std::int64_t min, std::int64_t max) const;

  /// "--name=N" as a count of unsigned type T. Throws InputError when N is
  /// negative or exceeds T's range, which a cast would silently wrap.
  template <std::unsigned_integral T>
  T get_count(std::string_view name, T default_value) const {
    constexpr auto max = static_cast<std::int64_t>(std::min<std::uint64_t>(
        std::numeric_limits<T>::max(),
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())));
    return static_cast<T>(
        get_int(name, static_cast<std::int64_t>(default_value), 0, max));
  }

  /// "--name=X" as a finite number >= 0 (a rate, a duration, a threshold
  /// where 0 means off). Throws InputError naming the flag when X is
  /// negative, NaN or infinite.
  double get_nonnegative(std::string_view name, double default_value) const;

  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

 private:
  struct Option {
    std::string name;
    std::optional<std::string> value;
  };

  /// value(name), after checking that no "--name" was given bare.
  std::optional<std::string> required_value(std::string_view name) const;

  std::string program_;
  std::vector<Option> options_;
  std::vector<std::string> positionals_;
  std::vector<std::string> declared_;
};

}  // namespace appscope::util
