// Tests for the extension modules: the Hoisie-style baseline model, the
// design-space scans, and the optional synchronization terms.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/contracts.h"
#include "core/baseline.h"
#include "core/benchmarks.h"
#include "core/design_space.h"
#include "core/solver.h"
#include "loggp/registry.h"

namespace wc = wave::core;
namespace wb = wave::core::benchmarks;

namespace {
const wc::MachineConfig kSingle = wc::MachineConfig::xt4_single_core();
const wc::MachineConfig kDual = wc::MachineConfig::xt4_dual_core();
// One registry for the whole file: these tests exercise the solver and the
// design-space scans, not registry scoping.
const wave::loggp::CommModelRegistry kReg;
}  // namespace

TEST(Baseline, SingleProcessorMatchesSerialWork) {
  // With one processor there is no fill and no communication: baseline
  // and plug-and-play must agree exactly.
  const wc::AppParams app = wb::chimaera();
  const auto base = wc::hoisie_baseline(app, kSingle, kReg,
                                        wave::topo::closest_to_square(1));
  const auto model = wc::Solver(app, kSingle, kReg).evaluate(1);
  EXPECT_NEAR(base.iteration, model.iteration.total, 1e-6);
}

TEST(Baseline, ChargesEverySweepAFullFill) {
  // The naive reuse charges nsweeps fills; the plug-and-play model
  // charges only the nfull/ndiag precedence structure, so for a pipelined
  // code (Sweep3D: 8 sweeps, nfull 2, ndiag 2) the baseline must predict
  // a strictly larger iteration.
  wb::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 256;
  const wc::AppParams app = wb::sweep3d(cfg);
  const auto base = wc::hoisie_baseline(app, kDual, kReg,
                                        wave::topo::closest_to_square(1024));
  const auto model = wc::Solver(app, kDual, kReg).evaluate(1024);
  EXPECT_GT(base.iteration, model.iteration.total);
  // The excess is roughly (nsweeps - nfull - ndiag) extra fills.
  EXPECT_GT(base.iteration - model.iteration.total,
            2.0 * base.fill_time);
}

TEST(Baseline, SweepTimeDecomposition) {
  const wc::AppParams app = wb::lu();
  const auto base = wc::hoisie_baseline(app, kSingle, kReg,
                                        wave::topo::Grid(9, 9));
  EXPECT_NEAR(base.sweep_time,
              base.fill_time + app.tiles_per_stack() * base.step_cost, 1e-9);
  EXPECT_NEAR(base.iteration,
              2.0 * base.sweep_time + base.nonwavefront, 1e-9);
}

TEST(Baseline, RejectsBadInput) {
  wc::AppParams app = wb::lu();
  app.htile = app.nz + 1;  // a tile taller than the stack
  EXPECT_THROW(wc::hoisie_baseline(app, kSingle, kReg, wave::topo::Grid(9, 9)),
               wave::common::contract_error);
}

TEST(DesignSpace, HtileScanFindsPaperBand) {
  const auto scan = wc::scan_htile(wb::chimaera(), kDual, kReg, 16384);
  EXPECT_GE(scan.best_htile, 2.0);
  EXPECT_LE(scan.best_htile, 5.0);
  EXPECT_GT(scan.improvement_vs_unit, 0.0);
  EXPECT_EQ(scan.points.size(), 10u);
}

TEST(DesignSpace, HtileScanSkipsOversizedTiles) {
  wb::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = 64;
  cfg.nz = 4;  // stack of four cells: candidates above 4 are invalid
  const double candidates[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  const auto scan =
      wc::scan_htile(wb::sweep3d(cfg), kSingle, kReg, 64, candidates);
  EXPECT_EQ(scan.points.size(), 3u);  // 1, 2, 4
  for (const auto& p : scan.points) EXPECT_LE(p.htile, 4.0);
}

TEST(DesignSpace, HtileScanAlwaysIncludesUnitHeight) {
  const double candidates[] = {4.0};
  const auto scan =
      wc::scan_htile(wb::chimaera(), kDual, kReg, 4096, candidates);
  ASSERT_EQ(scan.points.size(), 2u);
  EXPECT_DOUBLE_EQ(scan.points.front().htile, 1.0);
}

TEST(DesignSpace, BalancedDecompositionsWin) {
  // Near-balanced grids minimize fill plus message volume (mildly
  // elongated shapes can edge out the square because Tdiagfill follows
  // the shorter m side, but never by much); the degenerate 1-row layout
  // loses badly once communication matters.
  const wc::Solver solver(wb::chimaera(), kDual, kReg);
  struct Point {
    wave::topo::Grid grid;
    double iteration;
  };
  std::vector<Point> points;  // every n x m factorization of 4096, n >= m
  for (int m = 1; m * m <= 4096; ++m) {
    if (4096 % m != 0) continue;
    const wave::topo::Grid grid(4096 / m, m);
    points.push_back({grid, solver.evaluate(grid).iteration.total});
  }
  ASSERT_EQ(points.size(), 7u);  // m = 1, 2, 4, ..., 64
  const auto best = std::min_element(
      points.begin(), points.end(),
      [](const Point& a, const Point& b) { return a.iteration < b.iteration; });
  EXPECT_LE(best->grid.n() / best->grid.m(), 4);  // best is near-balanced
  const Point& strip = points.front();            // the 4096x1 strip
  for (const auto& p : points) EXPECT_LE(p.iteration, strip.iteration);
  EXPECT_GT(strip.iteration, 1.5 * best->iteration);
  const Point& square = points.back();  // 64x64
  ASSERT_EQ(square.grid.n(), 64);
  EXPECT_LT(square.iteration, 1.05 * best->iteration);
}

TEST(DesignSpace, ProcessorsForDeadline) {
  const wc::AppParams app = wb::chimaera();
  const wc::Solver solver(app, kDual, kReg);
  // Find the smallest power of two meeting a deadline between the P=64
  // and P=4096 time steps.
  const double t64 =
      wave::common::usec_to_sec(solver.evaluate(64).timestep());
  const double t4096 =
      wave::common::usec_to_sec(solver.evaluate(4096).timestep());
  const double target = 0.5 * (t64 + t4096);
  const int p = wc::processors_for_deadline(app, kDual, kReg, target, 65536);
  EXPECT_GT(p, 64);
  EXPECT_LE(p, 4096);
  EXPECT_LE(wave::common::usec_to_sec(solver.evaluate(p).timestep()),
            target);
}

TEST(DesignSpace, DeadlineFallsBackToMax) {
  EXPECT_EQ(wc::processors_for_deadline(wb::chimaera(), kDual, kReg,
                                        /*timestep_seconds=*/1e-9, 1024),
            1024);
}

TEST(SyncTerms, NegligibleOnXt4SignificantOnSp2) {
  // §4.2: back-propagation terms matter on the SP/2, not on the XT4.
  const wc::AppParams app = wb::sweep3d_20m();
  auto share = [&](wc::MachineConfig machine) {
    wc::MachineConfig off = machine;
    off.synchronization_terms = false;
    wc::MachineConfig on = machine;
    on.synchronization_terms = true;
    const double t0 = wc::Solver(app, off, kReg).evaluate(4096).iteration.total;
    const double t1 = wc::Solver(app, on, kReg).evaluate(4096).iteration.total;
    return (t1 - t0) / t1;
  };
  const double xt4 = share(wc::MachineConfig::xt4_single_core());
  const double sp2 = share(wc::MachineConfig::sp2_single_core());
  EXPECT_LT(xt4, 0.005);  // well under half a percent
  EXPECT_GT(sp2, 10.0 * xt4);
}

TEST(SyncTerms, AddPositiveFillTime) {
  wc::MachineConfig with = kSingle;
  with.synchronization_terms = true;
  const auto grid = wave::topo::Grid(16, 16);
  const auto base = wc::Solver(wb::chimaera(), kSingle, kReg).evaluate(grid);
  const auto sync = wc::Solver(wb::chimaera(), with, kReg).evaluate(grid);
  // Tdiag gains (m-1)L, Tfull gains (m-1+n-2)L.
  const double l = kSingle.loggp.off.L;
  EXPECT_NEAR(sync.t_diagfill.total - base.t_diagfill.total, 15.0 * l, 1e-9);
  EXPECT_NEAR(sync.t_fullfill.total - base.t_fullfill.total, 29.0 * l, 1e-9);
}
