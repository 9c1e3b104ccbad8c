#include "calibrate/fitting.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/contracts.h"
#include "common/statistics.h"
#include "core/machine.h"
#include "workloads/pingpong.h"

namespace wave::calibrate {

Curve measure_curve(const loggp::MachineParams& ground_truth, bool on_chip,
                    const std::vector<int>& sizes, common::Rng* noise,
                    double rel_noise) {
  Curve curve;
  curve.reserve(sizes.size());
  for (int bytes : sizes) {
    usec t = workloads::pingpong_half_rtt(ground_truth, on_chip, bytes);
    if (noise != nullptr && rel_noise > 0.0) t = noise->jitter(t, rel_noise);
    curve.push_back({bytes, t});
  }
  std::sort(curve.begin(), curve.end(),
            [](const Sample& a, const Sample& b) { return a.bytes < b.bytes; });
  return curve;
}

std::vector<int> default_sizes() {
  std::vector<int> sizes;
  for (int b = 64; b <= 1024; b += 64) sizes.push_back(b);
  sizes.push_back(1025);
  for (int b = 1536; b <= 12288; b += 512) sizes.push_back(b);
  return sizes;
}

namespace {

struct Region {
  std::vector<double> xs;
  std::vector<double> ys;
};

/// Splits a curve into the eager (<= limit) and rendezvous (> limit) parts.
std::pair<Region, Region> split(const Curve& curve, int limit) {
  Region small, large;
  for (const Sample& s : curve) {
    Region& r = s.bytes <= limit ? small : large;
    r.xs.push_back(static_cast<double>(s.bytes));
    r.ys.push_back(s.time);
  }
  WAVE_EXPECTS_MSG(small.xs.size() >= 2,
                   "need at least two eager-size measurements");
  WAVE_EXPECTS_MSG(large.xs.size() >= 2,
                   "need at least two rendezvous-size measurements");
  return {std::move(small), std::move(large)};
}

}  // namespace

loggp::OffNodeParams fit_offnode(const Curve& curve, int eager_limit_bytes,
                                 FitQuality* quality) {
  const auto [small, large] = split(curve, eager_limit_bytes);
  const auto fit_s = common::fit_line(small.xs, small.ys);
  const auto fit_l = common::fit_line(large.xs, large.ys);
  if (quality != nullptr) {
    quality->r_squared_small = fit_s.r_squared;
    quality->r_squared_large = fit_l.r_squared;
  }

  loggp::OffNodeParams p;
  // §3.1: the slopes below and above the limit are equal and give G.
  p.G = 0.5 * (fit_s.slope + fit_l.slope);
  // Eq. (1): intercept_small = 2o + L.
  // Eq. (2) with h = 2L: intercept_large = 3o + 3L, so the protocol jump
  // is (o + 2L); solving the 2x2 system gives o and L.
  const double intercept_small = fit_s.intercept;
  const double jump = fit_l.intercept - fit_s.intercept;
  p.o = (2.0 * intercept_small - jump) / 3.0;
  p.L = (2.0 * jump - intercept_small) / 3.0;
  p.oh = 0.0;  // §3.1 assumes oh negligible
  return p;
}

loggp::OnChipParams fit_onchip(const Curve& curve, int eager_limit_bytes,
                               FitQuality* quality) {
  const auto [small, large] = split(curve, eager_limit_bytes);
  const auto fit_s = common::fit_line(small.xs, small.ys);
  const auto fit_l = common::fit_line(large.xs, large.ys);
  if (quality != nullptr) {
    quality->r_squared_small = fit_s.r_squared;
    quality->r_squared_large = fit_l.r_squared;
  }

  loggp::OnChipParams p;
  // §3.2: distinct copy and DMA slopes.
  p.Gcopy = fit_s.slope;
  p.Gdma = fit_l.slope;
  // Eq. (5): intercept_small = 2 ocopy. Eq. (6): intercept_large = o + ocopy.
  p.ocopy = fit_s.intercept / 2.0;
  p.o = fit_l.intercept - p.ocopy;
  return p;
}

loggp::MachineParams fit_machine(const Curve& offnode, const Curve& onchip,
                                 int eager_limit_bytes) {
  loggp::MachineParams fitted;
  fitted.eager_limit_bytes = eager_limit_bytes;
  fitted.off = fit_offnode(offnode, eager_limit_bytes);
  fitted.on = fit_onchip(onchip, eager_limit_bytes);
  fitted.validate();
  return fitted;
}

namespace {

/// file:line diagnostics in the machines/*.cfg error style.
[[noreturn]] void csv_fail(const std::string& source, int line,
                           const std::string& what) {
  std::ostringstream os;
  os << source;
  if (line > 0) os << ":" << line;
  os << ": " << what;
  throw core::ConfigError(os.str());
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin])))
    ++begin;
  std::size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
    --end;
  return s.substr(begin, end - begin);
}

bool parse_number(const std::string& text, double* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin && end == begin + text.size();
}

}  // namespace

Curve parse_curve_csv(const std::string& text, const std::string& source) {
  Curve curve;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  bool saw_data = false;
  while (std::getline(in, raw)) {
    ++line_no;
    if (const std::size_t hash = raw.find('#'); hash != std::string::npos)
      raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;

    const std::size_t comma = line.find(',');
    if (comma == std::string::npos)
      csv_fail(source, line_no,
               "expected 'bytes,time_us' (no comma found)");
    const std::string bytes_text = trim(line.substr(0, comma));
    const std::string time_text = trim(line.substr(comma + 1));
    if (time_text.find(',') != std::string::npos)
      csv_fail(source, line_no,
               "expected exactly two columns 'bytes,time_us'");

    double bytes = 0.0, time_us = 0.0;
    if (!parse_number(bytes_text, &bytes) ||
        !parse_number(time_text, &time_us)) {
      // One non-numeric header row is tolerated, but only as the first
      // content line — anywhere else it is a malformed row.
      if (!saw_data && curve.empty()) {
        saw_data = true;  // the header slot is spent
        continue;
      }
      csv_fail(source, line_no,
               "malformed row '" + line + "': both columns must be numeric");
    }
    saw_data = true;
    // Range-checked before the cast: converting a double outside int's
    // range (1e10, inf, nan) to int is undefined behaviour.
    if (!(bytes >= 1.0 && bytes <= std::numeric_limits<int>::max()) ||
        bytes != std::floor(bytes))
      csv_fail(source, line_no,
               "message size must be a whole byte count in 1.." +
                   std::to_string(std::numeric_limits<int>::max()));
    if (!(time_us > 0.0 && std::isfinite(time_us)))
      csv_fail(source, line_no, "measured time must be finite and > 0 us");
    curve.push_back({static_cast<int>(bytes), time_us});
  }
  if (curve.empty())
    csv_fail(source, 0, "no measurements (need 'bytes,time_us' rows)");
  std::sort(curve.begin(), curve.end(),
            [](const Sample& a, const Sample& b) { return a.bytes < b.bytes; });
  return curve;
}

Curve load_curve_csv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw core::ConfigError(path + ": cannot open curve CSV");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_curve_csv(text.str(), path);
}

}  // namespace wave::calibrate
