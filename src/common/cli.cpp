#include "common/cli.h"

#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace wave::common {

std::optional<long long> parse_int(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return value;
}

std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return value;
}

namespace {

[[noreturn]] void fatal_value(const std::string& name, const std::string& value,
                              const char* expected) {
  std::cerr << "error: --" << name << " expects " << expected << ", got '"
            << value << "'\n";
  std::exit(1);
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "";
    }
  }
}

bool Cli::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() || it->second.empty() ? fallback : it->second;
}

long long Cli::get_int(const std::string& name, long long fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  const auto value = parse_int(it->second);
  if (!value) fatal_value(name, it->second, "an integer");
  return *value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  const auto value = parse_double(it->second);
  if (!value) fatal_value(name, it->second, "a number");
  return *value;
}

}  // namespace wave::common
