#include "util/cli.hpp"

#include <algorithm>

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

bool CliArgs::has(std::string_view name) const noexcept {
  for (const auto& opt : options_) {
    if (opt.name == name) return true;
  }
  return false;
}

std::optional<std::string> CliArgs::value(std::string_view name) const noexcept {
  for (const auto& opt : options_) {
    if (opt.name == name && opt.value) return opt.value;
  }
  return std::nullopt;
}

std::string CliArgs::get_string(std::string_view name,
                                std::string default_value) const {
  const auto v = value(name);
  return v ? *v : std::move(default_value);
}

std::int64_t CliArgs::get_int(std::string_view name,
                              std::int64_t default_value) const {
  const auto v = value(name);
  if (!v) return default_value;
  return parse_int(*v);
}

std::uint64_t CliArgs::checked_count(std::string_view name,
                                    std::uint64_t default_value,
                                    std::uint64_t max) const {
  const auto v = value(name);
  if (!v) return default_value;
  const std::int64_t n = parse_int(*v);
  if (n < 0 || static_cast<std::uint64_t>(n) > max) {
    throw InputError("--" + std::string(name) + "=" + *v +
                     ": expected a count in [0, " + std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(n);
}

double CliArgs::get_double(std::string_view name, double default_value) const {
  const auto v = value(name);
  if (!v) return default_value;
  return parse_double(*v);
}

}  // namespace appscope::util
