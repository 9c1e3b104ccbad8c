// Tests for the plug-and-play solver (Table 5 equations, Table 6
// extensions): hand-derived small cases plus structural properties.
#include <gtest/gtest.h>

#include "common/contracts.h"
#include "core/benchmarks.h"
#include "core/solver.h"
#include "loggp/backends.h"
#include "loggp/registry.h"

namespace wc = wave::core;
namespace wb = wave::core::benchmarks;
namespace wl = wave::loggp;

namespace {

/// A deliberately simple app for hand-derivable expectations.
wc::AppParams tiny_app() {
  wc::AppParams app;
  app.name = "tiny";
  app.nx = app.ny = 8;
  app.nz = 4;
  app.wg = 10.0;
  app.htile = 1.0;
  app.sweeps = wc::SweepStructure(
      {{wc::SweepOrigin::NorthWest, wc::SweepPrecedence::FullComplete}});
  app.boundary_bytes_per_cell = 8.0;
  app.validate();
  return app;
}

const wc::MachineConfig kSingle = wc::MachineConfig::xt4_single_core();
const wc::MachineConfig kDual = wc::MachineConfig::xt4_dual_core();
// One registry for the whole file: these tests pin solver arithmetic, not
// registry scoping.
const wave::loggp::CommModelRegistry kReg;

}  // namespace

TEST(Solver, SingleProcessorIsSerialTime) {
  // On a 1x1 grid there is no communication at all: the iteration is
  // nsweeps * Wg * cells (+Wpre) and the fill terms equal Wpre.
  wc::AppParams app = tiny_app();
  const wc::Solver solver(app, kSingle, kReg);
  const auto res = solver.evaluate(1);
  const double cells = 8.0 * 8.0 * 1.0;  // per tile
  EXPECT_DOUBLE_EQ(res.w, 10.0 * cells);
  EXPECT_DOUBLE_EQ(res.t_stack.total, res.w * 4.0);
  EXPECT_DOUBLE_EQ(res.t_stack.comm, 0.0);
  EXPECT_DOUBLE_EQ(res.iteration.comm, 0.0);
}

TEST(Solver, R1WorkTerms) {
  // (r1a)/(r1b): Wpre and W scale with Htile * Nx/n * Ny/m.
  wc::AppParams app = tiny_app();
  app.wg_pre = 2.0;
  const wc::Solver solver(app, kSingle, kReg);
  const auto res = solver.evaluate(wave::topo::Grid(4, 2));
  EXPECT_DOUBLE_EQ(res.w, 10.0 * 1.0 * (8.0 / 4.0) * (8.0 / 2.0));
  EXPECT_DOUBLE_EQ(res.wpre, 2.0 * 1.0 * (8.0 / 4.0) * (8.0 / 2.0));
}

TEST(Solver, StartPRecurrenceOnARow) {
  // On a 1-row grid (m=1) the recurrence collapses to
  // StartP(i,1) = (i-1) * (W + TotalCommE): hand-checkable.
  wc::AppParams app = tiny_app();
  const wc::Solver solver(app, kSingle, kReg);
  const wave::topo::Grid grid(4, 1);
  const auto res = solver.evaluate(grid);
  const wl::LogGpModel comm(kSingle.loggp);
  const int ew = app.message_bytes_ew(4, 1);
  const double w = app.wg * (8.0 / 4.0) * 8.0;
  const double hop = w + comm.total(ew, wl::Placement::OffNode);
  EXPECT_NEAR(res.t_fullfill.total, 3.0 * hop, 1e-9);
  // Tdiagfill = StartP(1, m) = StartP(1,1) = Wpre = 0 on one row.
  EXPECT_DOUBLE_EQ(res.t_diagfill.total, 0.0);
}

TEST(Solver, StartPMonotoneAlongRowsAndColumns) {
  // Pipeline fill grows with distance from the origin when the
  // per-processor work is held fixed (weak scaling): more hops, same
  // per-hop cost.
  double prev_full = -1.0;
  for (int side : {2, 4, 8, 16}) {
    wb::ChimaeraConfig cfg;
    cfg.nx = cfg.ny = 4.0 * side;  // Nx/n = Ny/m = 4 at every size
    const wc::Solver solver(wb::chimaera(cfg), kSingle, kReg);
    const auto res = solver.evaluate(wave::topo::Grid(side, side));
    EXPECT_GT(res.t_fullfill.total, prev_full);
    EXPECT_LE(res.t_diagfill.total, res.t_fullfill.total);
    prev_full = res.t_fullfill.total;
  }
}

TEST(Solver, R5CombinesTerms) {
  // (r5): iteration = ndiag*Tdiag + nfull*Tfull + nsweeps*Tstack + Tnwf.
  const wc::AppParams app = wb::sweep3d();  // ndiag=2, nfull=2, nsweeps=8
  const wc::Solver solver(app, kDual, kReg);
  const auto res = solver.evaluate(256);
  EXPECT_NEAR(res.iteration.total,
              2.0 * res.t_diagfill.total + 2.0 * res.t_fullfill.total +
                  8.0 * res.t_stack.total + res.t_nonwavefront.total,
              1e-9);
  EXPECT_NEAR(res.fill.total,
              2.0 * res.t_diagfill.total + 2.0 * res.t_fullfill.total, 1e-9);
}

TEST(Solver, BreakdownSplitsAreConsistent) {
  const wc::Solver solver(wb::chimaera(), kDual, kReg);
  const auto res = solver.evaluate(1024);
  EXPECT_GE(res.iteration.comm, 0.0);
  EXPECT_LE(res.iteration.comm, res.iteration.total);
  EXPECT_NEAR(res.iteration.compute(),
              res.iteration.total - res.iteration.comm, 1e-9);
  // All-reduce-only non-wavefront phases are pure communication.
  EXPECT_NEAR(res.t_nonwavefront.comm, res.t_nonwavefront.total, 1e-9);
}

TEST(Solver, CommunicationShareGrowsWithP) {
  // Fig 11: strong scaling shrinks per-processor work, so communication's
  // share of the critical path grows monotonically.
  const wc::Solver solver(wb::chimaera(), kDual, kReg);
  double prev_share = 0.0;
  for (int p : {64, 256, 1024, 4096, 16384}) {
    const auto res = solver.evaluate(p);
    const double share = res.iteration.comm / res.iteration.total;
    EXPECT_GT(share, prev_share) << "P=" << p;
    prev_share = share;
  }
}

TEST(Solver, TimestepScalesWithIterationsAndGroups) {
  wb::Sweep3dConfig cfg;
  cfg.energy_groups = 30;
  const wc::Solver solver(wb::sweep3d(cfg), kDual, kReg);
  const auto res = solver.evaluate(1024);
  EXPECT_NEAR(res.timestep(), res.iteration.total * 120.0 * 30.0, 1e-6);
}

TEST(Solver, MulticorePlacementReducesFillCost) {
  // With dual-core nodes half the N-S hops become on-chip, which are
  // cheaper, so the pipeline fill is no slower than all-off-node.
  const wc::AppParams app = wb::chimaera();
  const auto single = wc::Solver(app, kSingle, kReg).evaluate(wave::topo::Grid(16, 16));
  const auto dual = wc::Solver(app, kDual, kReg).evaluate(wave::topo::Grid(16, 16));
  EXPECT_LE(dual.t_fullfill.total, single.t_fullfill.total);
}

TEST(Solver, MulticoreContentionSlowsStack) {
  // Table 6 adds I to the r4 operations on CMP nodes, so Tstack grows with
  // cores per node.
  const wc::AppParams app = wb::chimaera();
  const auto grid = wave::topo::Grid(16, 16);
  const auto c1 = wc::Solver(app, kSingle, kReg).evaluate(grid);
  const auto c2 = wc::Solver(app, kDual, kReg).evaluate(grid);
  const auto c4 =
      wc::Solver(app, wc::MachineConfig::xt4_with_cores(4), kReg).evaluate(grid);
  const auto c8 =
      wc::Solver(app, wc::MachineConfig::xt4_with_cores(8), kReg).evaluate(grid);
  EXPECT_LT(c1.t_stack.total, c2.t_stack.total);
  EXPECT_LT(c2.t_stack.total, c4.t_stack.total);
  EXPECT_LT(c4.t_stack.total, c8.t_stack.total);
}

TEST(Solver, SeparateBusesRecoverQuadCoreStack) {
  // §5.3: 16 cores with one bus per 4 cores has the same per-tile
  // interference as a quad-core node.
  const wc::AppParams app = wb::chimaera();
  const auto grid = wave::topo::Grid(16, 16);
  const auto quad =
      wc::Solver(app, wc::MachineConfig::xt4_with_cores(4), kReg).evaluate(grid);
  const auto sixteen_banked =
      wc::Solver(app, wc::MachineConfig::xt4_with_cores(16, 4), kReg).evaluate(grid);
  EXPECT_NEAR(sixteen_banked.t_stack.total, quad.t_stack.total, 1e-9);
}

TEST(Solver, LuPrecomputeAppearsOnceInFill) {
  // Wpre enters StartP(1,1) (r2a) and each tile of Tstack (r4), with the
  // final-tile adjustment -Wpre.
  wc::AppParams app = tiny_app();
  app.wg_pre = 5.0;
  const wc::Solver solver(app, kSingle, kReg);
  const auto res = solver.evaluate(wave::topo::Grid(1, 1));
  const double cells = 64.0;
  EXPECT_DOUBLE_EQ(res.t_diagfill.total, 5.0 * cells);  // StartP(1,1) = Wpre
  EXPECT_DOUBLE_EQ(res.t_stack.total,
                   (10.0 * cells + 5.0 * cells) * 4.0 - 5.0 * cells);
}

TEST(Solver, StackDrainChargesEachDirectionItsOwnInterference) {
  // (r4) on 2x2 nodes, one bus: Table 6 adds one interference unit
  // I(bytes) = odma + bytes * Gdma to each of the four stack operations,
  // sized by that direction's message. A 4x2 grid makes the east-west
  // message (32 B) differ from the north-south one (16 B); both are
  // eager, so each off-node send and receive costs o.
  const wc::MachineConfig quad = wc::MachineConfig::xt4_with_cores(4);
  const auto res =
      wc::Solver(tiny_app(), quad, kReg).evaluate(wave::topo::Grid(4, 2));
  ASSERT_EQ(res.msg_bytes_ew, 32);
  ASSERT_EQ(res.msg_bytes_ns, 16);
  const auto& p = quad.loggp;
  const double i_ew = (p.on.o - p.on.ocopy) + 32 * p.on.Gdma;
  const double i_ns = (p.on.o - p.on.ocopy) + 16 * p.on.Gdma;
  const double comm = 4 * p.off.o + 2 * i_ew + 2 * i_ns;
  const double w = 10.0 * (8.0 / 4.0) * (8.0 / 2.0);
  EXPECT_DOUBLE_EQ(res.t_stack.total, (comm + w) * 4.0);
  EXPECT_DOUBLE_EQ(res.t_stack.comm, comm * 4.0);
}

TEST(Solver, NonblockingSendsPayOnlyTheOverheadInTheStack) {
  // (r4) with the nonblocking-sends variant: rendezvous-size messages
  // (2,048 B > the 1,024 B eager limit) still cost a full receive,
  // 2L + 2o + bytes * G, but each send costs only o — no handshake.
  wc::AppParams app = tiny_app();
  app.nx = app.ny = 512;
  app.wg = 1e-3;
  app.nonblocking_sends = true;
  const auto res =
      wc::Solver(app, kSingle, kReg).evaluate(wave::topo::Grid(2, 2));
  ASSERT_EQ(res.msg_bytes_ew, 2048);
  ASSERT_EQ(res.msg_bytes_ns, 2048);
  const auto& p = kSingle.loggp.off;
  const double recv = 2 * p.L + 2 * p.o + 2048 * p.G;
  const double comm = 2 * recv + 2 * p.o;
  EXPECT_DOUBLE_EQ(res.t_stack.comm, comm * 4.0);
  EXPECT_DOUBLE_EQ(res.t_stack.total, (comm + res.w) * 4.0);
}

TEST(Solver, StencilPhaseSplitsComputeFromComm) {
  // Tnonwavefront for a stencil phase: per-rank compute
  // Nx/n * Ny/m * Nz * work, then per direction pair one send (o, eager)
  // plus one message's TotalComm (2o + bytes * G + L). Everything past
  // the compute is communication. A grid with one row has no north-south
  // neighbours, so that pair is free.
  wc::AppParams app = tiny_app();
  app.nonwavefront.has_stencil = true;
  app.nonwavefront.stencil_work_per_cell = 0.5;
  const auto& p = kSingle.loggp.off;
  const auto pair = [&](int bytes) {
    return p.o + 2 * p.o + bytes * p.G + p.L;
  };
  const wc::Solver solver(app, kSingle, kReg);

  const auto two_rows = solver.evaluate(wave::topo::Grid(4, 2));
  const double compute2 = (8.0 / 4.0) * (8.0 / 2.0) * 4.0 * 0.5;
  const double t2 = compute2 + pair(32) + pair(16);
  EXPECT_DOUBLE_EQ(two_rows.t_nonwavefront.total, t2);
  EXPECT_DOUBLE_EQ(two_rows.t_nonwavefront.comm, t2 - compute2);

  const auto one_row = solver.evaluate(wave::topo::Grid(4, 1));
  ASSERT_GT(one_row.msg_bytes_ns, 0);
  const double compute1 = (8.0 / 4.0) * (8.0 / 1.0) * 4.0 * 0.5;
  const double comm1 = pair(one_row.msg_bytes_ew);
  EXPECT_DOUBLE_EQ(one_row.t_nonwavefront.total, compute1 + comm1);
  EXPECT_DOUBLE_EQ(one_row.t_nonwavefront.comm, comm1);
}

TEST(Solver, HaloPairInsideOneNodeIsOnChip) {
  // xt4-dual stacks its two cores vertically (cx = 1, cy = 2): on a
  // two-row grid every N/S neighbour shares the node, so that pair is
  // priced on-chip while the E/W pair stays off-node.
  const auto comm = kDual.make_comm_model(kReg);
  const auto pair = [&](int bytes, wl::Placement where) {
    return comm->send(bytes, where) + comm->total(bytes, where);
  };
  const wave::topo::Grid grid(4, 2);
  EXPECT_DOUBLE_EQ(wc::halo_time(kDual, *comm, grid, 32, 16),
                   pair(32, wl::Placement::OffNode) +
                       pair(16, wl::Placement::OnChip));
  EXPECT_EQ(wc::halo_time(kDual, *comm, wave::topo::Grid(1, 1), 32, 16), 0.0);
}

TEST(Solver, RejectsBadInputs) {
  EXPECT_THROW(wc::Solver(wb::chimaera(), kDual, kReg).evaluate(0),
               wave::common::contract_error);
  wc::MachineConfig bad = kDual;
  bad.cx = 3;  // 3 cores per node: not a power of two
  EXPECT_THROW(wc::Solver(wb::chimaera(), bad, kReg),
               wave::common::contract_error);
}

// Fig 5 property: execution time as a function of Htile is high at
// Htile = 1 (communication-bound), dips, and rises again for very tall
// tiles (fill-bound); the minimizer for the paper's configurations is
// in the 2-5 band.
class HtileTradeoff : public ::testing::TestWithParam<int> {};

TEST_P(HtileTradeoff, MinimizerInPaperBand) {
  const int p = GetParam();
  wb::ChimaeraConfig cfg;
  double best_time = 1e300;
  double best_h = 0.0;
  std::vector<double> times;
  for (double h : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0}) {
    cfg.htile = h;
    const wc::Solver solver(wb::chimaera(cfg), kDual, kReg);
    const double t = solver.evaluate(p).iteration.total;
    times.push_back(t);
    if (t < best_time) {
      best_time = t;
      best_h = h;
    }
  }
  EXPECT_GE(best_h, 2.0);
  EXPECT_LE(best_h, 5.0);
  // And the curve is genuinely non-monotone: Htile=1 is worse than best.
  EXPECT_GT(times.front(), best_time);
}

INSTANTIATE_TEST_SUITE_P(ProcessorCounts, HtileTradeoff,
                         ::testing::Values(4096, 16384));

// Strong-scaling property (Fig 6): more processors never increases the
// modelled iteration time, but the speedup has diminishing returns.
TEST(Solver, StrongScalingDiminishingReturns) {
  wb::Sweep3dConfig cfg;
  const wc::Solver solver(wb::sweep3d(cfg), kDual, kReg);
  double prev_time = 1e300;
  double prev_gain = 1e300;
  for (int p = 1024; p <= 65536; p *= 2) {
    const double t = solver.evaluate(p).iteration.total;
    EXPECT_LT(t, prev_time) << "P=" << p;
    if (prev_time < 1e299) {
      const double gain = prev_time - t;
      EXPECT_LT(gain, prev_gain) << "P=" << p;
      prev_gain = gain;
    }
    prev_time = t;
  }
}
