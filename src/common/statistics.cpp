#include "common/statistics.h"

#include <algorithm>

#include "common/contracts.h"

namespace wave::common {

LineFit fit_line(std::span<const double> xs, std::span<const double> ys) {
  WAVE_EXPECTS(xs.size() == ys.size());
  WAVE_EXPECTS_MSG(xs.size() >= 2, "line fit needs at least two points");
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  WAVE_EXPECTS_MSG(denom != 0.0, "line fit needs two distinct x values");

  LineFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;

  const double mean_y = sy / n;
  double ss_tot = 0, ss_res = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.slope * xs[i] + fit.intercept;
    ss_tot += (ys[i] - mean_y) * (ys[i] - mean_y);
    ss_res += (ys[i] - pred) * (ys[i] - pred);
  }
  fit.r_squared = ss_tot == 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

std::size_t percentile_rank(std::size_t n, unsigned pct) {
  WAVE_EXPECTS_MSG(n >= 1, "percentile_rank needs at least one sample");
  WAVE_EXPECTS_MSG(pct <= 100, "percentile must be in [0, 100]");
  return std::min(n - 1, n * pct / 100);
}

Percentiles percentiles(std::vector<double>& xs) {
  Percentiles out;
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  out.p50 = xs[percentile_rank(xs.size(), 50)];
  out.p99 = xs[percentile_rank(xs.size(), 99)];
  return out;
}

unsigned exact_log2(std::size_t x) {
  WAVE_EXPECTS_MSG(is_power_of_two(x), "exact_log2 requires a power of two");
  unsigned r = 0;
  while (x > 1) {
    x >>= 1U;
    ++r;
  }
  return r;
}

}  // namespace wave::common
