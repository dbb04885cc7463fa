#include "util/cli.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace appscope::util {

CliArgs::CliArgs(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (starts_with(token, "--") && token.size() > 2) {
      const std::size_t eq = token.find('=');
      Option opt;
      if (eq == std::string_view::npos) {
        opt.name = std::string(token.substr(2));
      } else {
        opt.name = std::string(token.substr(2, eq - 2));
        opt.value = std::string(token.substr(eq + 1));
      }
      options_.push_back(std::move(opt));
    } else {
      positionals_.emplace_back(token);
    }
  }
}

CliArgs::CliArgs(int argc, char** argv, std::vector<std::string> flags)
    : CliArgs(argc, argv) {
  declared_ = std::move(flags);
  for (const Option& opt : options_) {
    if (opt.name != "help" &&
        std::find(declared_.begin(), declared_.end(), opt.name) ==
            declared_.end()) {
      throw InputError("unknown flag --" + opt.name + " (see --help)");
    }
  }
  if (!positionals_.empty()) {
    throw InputError("unexpected argument '" + positionals_.front() +
                     "' (see --help)");
  }
}

std::string CliArgs::help() const {
  std::string out = "usage: " + program_ + " [--flag[=value] ...]\nflags:\n";
  for (const std::string& name : declared_) out += "  --" + name + "\n";
  out += "  --help\n";
  return out;
}

bool CliArgs::has(std::string_view name) const {
  bool given = false;
  for (const auto& opt : options_) {
    if (opt.name != name) continue;
    if (opt.value) {
      throw InputError("--" + opt.name + "=" + *opt.value + ": --" + opt.name +
                       " is a switch and takes no value");
    }
    given = true;
  }
  return given;
}

std::optional<std::string> CliArgs::value(std::string_view name) const noexcept {
  for (const auto& opt : options_) {
    if (opt.name == name && opt.value) return opt.value;
  }
  return std::nullopt;
}

std::optional<std::string> CliArgs::required_value(std::string_view name) const {
  for (const auto& opt : options_) {
    if (opt.name == name && !opt.value) {
      throw InputError("--" + opt.name + " needs a value (--" + opt.name +
                       "=...)");
    }
  }
  return value(name);
}

std::string CliArgs::get_string(std::string_view name,
                                std::string default_value) const {
  const auto v = required_value(name);
  return v ? *v : std::move(default_value);
}

std::int64_t CliArgs::get_int(std::string_view name,
                              std::int64_t default_value, std::int64_t min,
                              std::int64_t max) const {
  const auto v = required_value(name);
  if (!v) return default_value;
  const std::int64_t n = parse_int(*v);
  if (n < min || n > max) {
    throw InputError("--" + std::string(name) + "=" + *v +
                     ": expected an integer in [" + std::to_string(min) +
                     ", " + std::to_string(max) + "]");
  }
  return n;
}

double CliArgs::get_nonnegative(std::string_view name,
                                double default_value) const {
  const auto v = required_value(name);
  if (!v) return default_value;
  const double x = parse_double(*v);
  if (!std::isfinite(x) || x < 0.0) {
    throw InputError("--" + std::string(name) + "=" + *v +
                     ": expected a finite number >= 0");
  }
  return x;
}

}  // namespace appscope::util
