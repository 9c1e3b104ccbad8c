// Small statistics toolkit: ordinary least squares, used by the
// calibration module to fit LogGP parameters from ping-pong measurements
// (paper §3), nearest-rank latency percentiles and power-of-two helpers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wave::common {

/// Result of an ordinary-least-squares line fit y = slope * x + intercept.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  ///< coefficient of determination
};

/// Fits a line through (xs[i], ys[i]) by ordinary least squares.
/// Preconditions: xs.size() == ys.size(), at least two distinct x values.
LineFit fit_line(std::span<const double> xs, std::span<const double> ys);

/// Index of the p-th percentile in a sorted sample of n elements, using
/// the nearest-rank-floor convention n*pct/100 shared by serve_load and
/// the obs histogram snapshots (clamped into [0, n-1]). Precondition:
/// n >= 1, pct in [0, 100].
std::size_t percentile_rank(std::size_t n, unsigned pct);

/// p50/p99 of a latency sample (the serving layer's tail-latency pair).
struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Computes p50/p99 by nearest-rank floor (see percentile_rank): sorts
/// `xs` in place and indexes it directly. An empty sample yields zeros; a
/// single sample is both percentiles; ties resolve by rank, never by
/// interpolation.
Percentiles percentiles(std::vector<double>& xs);

/// Integer log2 for exact powers of two. Precondition: x is a power of two.
unsigned exact_log2(std::size_t x);

/// True iff x is a (positive) power of two.
constexpr bool is_power_of_two(std::size_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Largest power of two <= x. Precondition: x >= 1.
constexpr int floor_pow2(int x) {
  int p = 1;
  while (p * 2 <= x) p *= 2;
  return p;
}

}  // namespace wave::common
