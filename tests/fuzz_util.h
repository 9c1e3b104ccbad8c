// Seeded mutation helpers for the parser fuzz tests (MachineConfigFuzz,
// CurveCsvFuzz): deterministic hostile inputs with no fuzzing engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"

namespace fuzz_test {

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

inline std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// One to three stacked edits: a byte flip, a truncation, a duplicated
/// line or a deleted line.
inline std::string mutate(std::string text, wave::common::Rng& rng) {
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < edits && !text.empty(); ++i) {
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    switch (rng.uniform_int(0, 3)) {
      case 0:
        text[pick(text.size())] ^= static_cast<char>(rng.uniform_int(1, 255));
        break;
      case 1:
        text.resize(pick(text.size()));
        break;
      default: {
        std::vector<std::string> lines = split_lines(text);
        if (lines.empty()) break;
        const std::size_t at = pick(lines.size());
        if (rng.uniform_int(0, 1) == 0)
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                       lines[at]);
        else
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        text = join_lines(lines);
      }
    }
  }
  return text;
}

}  // namespace fuzz_test
