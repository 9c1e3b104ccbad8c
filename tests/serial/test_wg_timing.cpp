// Wall-clock Wg-measurement tests, isolated from the main suite.
//
// These compare two *measured* per-cell times, so they are only
// meaningful when nothing else competes for the CPU: under parallel ctest
// on a 1-core box the slower-but-lighter run can lose its timeslice and
// invert the comparison. The binary is therefore registered with the
// ctest RUN_SERIAL property (see CMakeLists.txt) — ctest runs it alone —
// and the assertion is a monotonic lower bound with headroom (6x the
// angular work must show at least a 1.5x per-cell time increase) rather
// than a bare greater-than. Each side is the fastest of three measurements,
// so one preempted run cannot flip it either.
#include <gtest/gtest.h>

#include <algorithm>

#include "kernels/miniapp.h"
#include "kernels/transport.h"

namespace wk = wave::kernels;

namespace {
constexpr int kTrials = 3;

wk::MiniAppConfig small_config() {
  wk::MiniAppConfig cfg;
  cfg.nx = cfg.ny = 8;
  cfg.nz = 16;
  cfg.tile_height = 4;
  cfg.angles = 4;
  return cfg;
}

/// Fastest of kTrials measurements of `measure()`.
template <typename F>
double fastest(F measure) {
  double best = measure();
  for (int i = 1; i < kTrials; ++i) best = std::min(best, measure());
  return best;
}
}  // namespace

TEST(WgTiming, MeasurementScalesWithAngles) {
  wk::MiniAppConfig few = small_config();
  few.angles = 2;
  wk::MiniAppConfig many = small_config();
  many.angles = 12;
  const double wg_few =
      fastest([&] { return wk::run_miniapp(few).wg_measured; });
  const double wg_many =
      fastest([&] { return wk::run_miniapp(many).wg_measured; });
  ASSERT_GT(wg_few, 0.0);
  ASSERT_GT(wg_many, 0.0);
  // 6x the angles means ~6x the transport work per cell; demanding only
  // 1.5x leaves a 4x margin for timer and scheduler noise while still
  // failing if wg_measured stopped scaling with the angular work at all.
  EXPECT_GT(wg_many, 1.5 * wg_few);
}

TEST(WgTiming, TransportMeasurementScalesWithAngles) {
  const double wg2 = fastest([] { return wk::measure_wg_transport(2); });
  const double wg12 = fastest([] { return wk::measure_wg_transport(12); });
  ASSERT_GT(wg2, 0.0);
  // Same headroom as above: 6x the angles, at least 1.5x the time per cell.
  EXPECT_GT(wg12, 1.5 * wg2);
}
