// Minimal command-line flag parsing shared by the bench/ and examples/
// executables. Supports `--flag`, `--key=value` and `--key value` forms.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace wave::common {

/// The whole of `text` as a base-10 integer, or nullopt when any of it is
/// not (empty, trailing characters, out of range).
std::optional<long long> parse_int(const std::string& text);

/// The whole of `text` as a double, or nullopt when any of it is not.
std::optional<double> parse_double(const std::string& text);

/// Parsed command line: boolean flags and key/value options.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True when `--name` was given (with or without a value).
  bool has(const std::string& name) const;

  /// Value of `--name`, or `fallback` when absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Numeric value of `--name`, or `fallback` when absent. A value that is
  /// not wholly a number is a user error: prints the flag and the value
  /// on stderr and exits non-zero.
  long long get_int(const std::string& name, long long fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace wave::common
