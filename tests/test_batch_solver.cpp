// The batch solver's correctness contract: BYTE-identical to the scalar
// Solver on every point — not approximately equal, bit-for-bit. The two
// paths share every term but r2 (core/solver.h's evaluate_r1 and
// evaluate_r3_r5), so what these tests check is the r2 schedule: the plan
// (core/batch_solver.h) only pre-evaluates the exact doubles the scalar
// loop's virtual calls would return and replays them in the scalar loop's
// operation order, so memcmp on every result field must pass over the full
// pinned reference grids, every comm backend, and every edge-shaped grid.
// The shared terms themselves are pinned by closed-form tests
// (tests/test_core_solver.cpp) and the pinned record fixtures.
// BatchRunner's default routing rides the same contract: its record sets
// serialize identically to run(points, evaluate_scenario)'s at any thread
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/batch_solver.h"
#include "core/benchmarks.h"
#include "core/solver.h"
#include "kernels/fill_recurrence.h"
#include "loggp/backends.h"
#include "loggp/registry.h"
#include "obs/metrics.h"
#include "runner/reference_grids.h"
#include "runner/runner.h"
#include "topology/grid.h"
#include "wave/context.h"
#include "workloads/workload.h"

namespace wc = wave::core;
namespace wb = wave::core::benchmarks;
namespace wk = wave::kernels;
namespace wr = wave::runner;

#ifndef WAVE_MACHINES_DIR
#define WAVE_MACHINES_DIR "machines"
#endif

namespace {

// Shared read-only context/registry: the scalar reference and the batch
// plan must resolve backends against the same catalog.
const wave::Context kCtx;
const wave::loggp::CommModelRegistry kReg;

/// memcmp on the object representation of a double: NaN-safe, sign-of-zero
/// strict — the contract is bit identity, not numeric closeness.
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::memcmp(&a, &b, sizeof a) == 0)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "doubles differ: " << a << " vs " << b;
}

::testing::AssertionResult split_equal(const wc::TimeSplit& a,
                                       const wc::TimeSplit& b) {
  if (const auto r = bits_equal(a.total, b.total); !r) return r;
  return bits_equal(a.comm, b.comm);
}

/// Every field of the two results, bit for bit.
void expect_identical(const wc::ModelResult& a, const wc::ModelResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.grid.n(), b.grid.n()) << what;
  EXPECT_EQ(a.grid.m(), b.grid.m()) << what;
  EXPECT_TRUE(bits_equal(a.w, b.w)) << what << " (w)";
  EXPECT_TRUE(bits_equal(a.wpre, b.wpre)) << what << " (wpre)";
  EXPECT_EQ(a.msg_bytes_ew, b.msg_bytes_ew) << what;
  EXPECT_EQ(a.msg_bytes_ns, b.msg_bytes_ns) << what;
  EXPECT_TRUE(split_equal(a.t_diagfill, b.t_diagfill)) << what << " (r3a)";
  EXPECT_TRUE(split_equal(a.t_fullfill, b.t_fullfill)) << what << " (r3b)";
  EXPECT_TRUE(split_equal(a.t_stack, b.t_stack)) << what << " (r4)";
  EXPECT_TRUE(split_equal(a.t_nonwavefront, b.t_nonwavefront))
      << what << " (nonwf)";
  EXPECT_TRUE(split_equal(a.iteration, b.iteration)) << what << " (r5)";
  EXPECT_TRUE(split_equal(a.fill, b.fill)) << what << " (fill)";
  EXPECT_EQ(a.iterations_per_timestep, b.iterations_per_timestep) << what;
  EXPECT_EQ(a.energy_groups, b.energy_groups) << what;
  EXPECT_TRUE(split_equal(a.timestep_split(), b.timestep_split()))
      << what << " (timestep)";
}

/// A placement-parity bitmap as BatchEval builds it: [k] for 2 <= k <=
/// count says whether k-1 and k fall on one `tile`-wide node.
std::vector<std::uint8_t> parity(int count, int tile) {
  std::vector<std::uint8_t> pair(static_cast<std::size_t>(count) + 1, 0);
  for (int k = 2; k <= count; ++k) pair[k] = (k - 2) / tile == (k - 1) / tile;
  return pair;
}

/// StartP(1, m) and StartP(n, m) from the recurrence itself (the packed
/// lanes, which run on every CPU) on cx x cy nodes.
wk::FillCorners recurrence_corners(const wk::FillCosts& costs, int n, int m,
                                   int cx, int cy) {
  const std::vector<std::uint8_t> col = parity(n, cx), row = parity(m, cy);
  std::vector<wk::FillTime> out(static_cast<std::size_t>(n) + 1);
  wk::fill_packed_lanes(costs, col.data(), row.data(), n, m, out.data());
  return {out[1], out[n]};
}

/// Runs every analytic point of `grid` through both paths and compares.
void expect_grid_identical(const wr::SweepGrid& grid) {
  wc::BatchEval plan(kCtx.comm_model_registry());
  std::vector<wc::BatchPoint> bpoints;
  std::vector<wr::Scenario> scenarios;
  for (const wr::Scenario& s : grid.points()) {
    if (s.engine != wr::Engine::Model) continue;
    wc::BatchPoint p;
    p.app = plan.add_app(s.app);
    p.machine = plan.add_machine(s.effective_machine());
    p.grid = s.grid;
    bpoints.push_back(p);
    scenarios.push_back(s);
  }
  ASSERT_FALSE(bpoints.empty());

  wc::BatchScratch scratch;
  wc::ModelResult batch;
  for (std::size_t i = 0; i < bpoints.size(); ++i) {
    const wr::Scenario& s = scenarios[i];
    const wc::ModelResult scalar =
        wc::Solver(s.app, s.effective_machine(), kCtx.comm_model_registry())
            .evaluate(s.grid);
    plan.evaluate_point(bpoints[i], scratch, batch);
    expect_identical(scalar, batch,
                     "point " + std::to_string(i) + " (" +
                         s.effective_machine().comm_model + ", grid " +
                         std::to_string(s.grid.n()) + "x" +
                         std::to_string(s.grid.m()) + ")");
  }

  // The whole grid as one group reproduces every point's bits while
  // sharing the fills that repeat across backends.
  std::vector<wc::ModelResult> group(bpoints.size());
  EXPECT_LE(plan.evaluate_group(bpoints, scratch, group), bpoints.size());
  for (std::size_t i = 0; i < bpoints.size(); ++i) {
    plan.evaluate_point(bpoints[i], scratch, batch);
    expect_identical(batch, group[i], "group point " + std::to_string(i));
  }
}

}  // namespace

TEST(BatchSolver, ByteIdenticalOnModelCompareGrid) {
  // Machine configs x comm backends x system sizes — the pinned
  // cross-backend reference sweep, every point bit-compared.
  expect_grid_identical(wr::model_compare_grid(kCtx, WAVE_MACHINES_DIR));
}

TEST(BatchSolver, ByteIdenticalOnWorkloadMatrixGrid) {
  expect_grid_identical(wr::workload_matrix_grid(kCtx, false));
}

TEST(BatchSolver, ByteIdenticalAcrossBackendsAndSyncTerms) {
  // Every registered backend on both paper machines, synchronization
  // terms on and off — the axes that change which virtual calls the
  // scalar path makes, i.e. which doubles the plan must hoist.
  wr::SweepGrid grid;
  grid.base().app = wb::sweep3d_20m();
  grid.machines({{"dual", wc::MachineConfig::xt4_dual_core()},
                 {"sp2", wc::MachineConfig::sp2_single_core()}});
  grid.comm_models(kCtx, kCtx.comm_model_registry().names());
  grid.values("sync", {0, 1}, [](wr::Scenario& s, double v) {
    s.machine.synchronization_terms = v != 0.0;
  });
  grid.processors({64, 1024, 4096});
  expect_grid_identical(grid);
}

TEST(BatchSolver, ByteIdenticalOnEdgeGrids) {
  // Degenerate decompositions: a single processor (no fill, no comm), a
  // one-row pipeline, a one-column stack, and a tall-node machine where
  // the row-parity table does the work. The recurrence runs in skewed
  // blocks of kernels::kFillRows rows, or of up to 24 row lanes, so the
  // rest hit every block remainder, both ramps and grids narrower than a
  // block, on node rectangles up to 4x2, with blocking and non-blocking
  // sends.
  wc::BatchEval plan(kCtx.comm_model_registry());
  std::vector<std::uint32_t> apps;
  for (const bool nonblocking : {false, true}) {
    wc::AppParams app = wb::chimaera();
    app.nonblocking_sends = nonblocking;
    apps.push_back(plan.add_app(app));
  }
  std::vector<std::uint32_t> machines = {
      plan.add_machine(wc::MachineConfig::xt4_dual_core()),
      plan.add_machine(wc::MachineConfig::xt4_with_cores(8, 2))};
  for (const auto& [cx, cy] : {std::pair{1, 1}, std::pair{2, 1},
                               std::pair{1, 2}, std::pair{2, 2},
                               std::pair{4, 2}}) {
    wc::MachineConfig m = wc::MachineConfig::xt4_dual_core();
    m.cx = cx;
    m.cy = cy;
    machines.push_back(plan.add_machine(m));
  }

  wc::BatchScratch scratch;
  wc::ModelResult batch;
  for (const std::uint32_t app : apps) {
    for (const std::uint32_t machine : machines) {
      for (const wave::topo::Grid grid :
           {wave::topo::Grid(1, 1), wave::topo::Grid(64, 1),
            wave::topo::Grid(1, 64), wave::topo::Grid(2, 2),
            wave::topo::Grid(128, 32), wave::topo::Grid(1, 17),
            wave::topo::Grid(3, 17), wave::topo::Grid(7, 8),
            wave::topo::Grid(8, 9), wave::topo::Grid(9, 8),
            wave::topo::Grid(2, 10), wave::topo::Grid(40, 17),
            wave::topo::Grid(40, 23), wave::topo::Grid(30, 24),
            wave::topo::Grid(9, 25), wave::topo::Grid(50, 26),
            wave::topo::Grid(20, 49)}) {
        wc::BatchPoint p;
        p.app = app;
        p.machine = machine;
        p.grid = grid;
        plan.evaluate_point(p, scratch, batch);
        const wc::ModelResult scalar =
            wc::Solver(plan.app(app), plan.machine(machine),
                       kCtx.comm_model_registry())
                .evaluate(grid);
        const wc::MachineConfig& mc = plan.machine(machine);
        expect_identical(
            scalar, batch,
            "grid " + std::to_string(grid.n()) + "x" +
                std::to_string(grid.m()) + " on " + std::to_string(mc.cx) +
                "x" + std::to_string(mc.cy) + " nodes, nonblocking " +
                std::to_string(plan.app(app).nonblocking_sends));
      }
    }
  }
}

TEST(BatchSolver, RandomDrawsMatchScalar) {
  // Seeded draws over every axis that changes which doubles the plan
  // hoists or which cells the skewed schedule visits: grid shape, node
  // rectangle, synchronization terms, non-blocking sends, comm backend and
  // application. Each draw is compared through evaluate_point and, all
  // draws as one group, through evaluate_group.
  constexpr int kDraws = 3000;
  wave::common::Rng rng(14);
  const std::vector<std::string> backends =
      kCtx.comm_model_registry().names();
  const std::pair<int, int> nodes[] = {{1, 1}, {2, 1}, {1, 2}, {2, 2},
                                       {4, 1}, {1, 4}, {4, 2}, {8, 2}};
  const std::pair<const char*, wc::AppParams> apps[] = {
      {"LU", wb::lu()}, {"Sweep3D", wb::sweep3d_20m()},
      {"Chimaera", wb::chimaera()}};
  auto pick = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };

  wc::BatchEval plan(kCtx.comm_model_registry());
  wc::BatchScratch scratch;
  wc::ModelResult batch;
  std::vector<wc::BatchPoint> points;
  std::vector<wc::ModelResult> scalars;
  std::vector<std::string> labels;
  for (int d = 0; d < kDraws; ++d) {
    const auto& [app_name, base] = apps[pick(std::size(apps))];
    wc::AppParams app = base;
    app.nonblocking_sends = rng.uniform_int(0, 1) != 0;
    wc::MachineConfig machine = wc::MachineConfig::xt4_dual_core();
    const auto [cx, cy] = nodes[pick(std::size(nodes))];
    machine.cx = cx;
    machine.cy = cy;
    machine.synchronization_terms = rng.uniform_int(0, 1) != 0;
    machine.comm_model = backends[pick(backends.size())];
    const wave::topo::Grid grid(static_cast<int>(rng.uniform_int(1, 40)),
                                static_cast<int>(rng.uniform_int(1, 40)));

    labels.push_back(
        "draw " + std::to_string(d) + ": " + app_name + " " +
        std::to_string(grid.n()) + "x" + std::to_string(grid.m()) + " on " +
        std::to_string(cx) + "x" + std::to_string(cy) + " nodes, " +
        machine.comm_model + ", sync " +
        std::to_string(machine.synchronization_terms) + ", nonblocking " +
        std::to_string(app.nonblocking_sends));
    scalars.push_back(
        wc::Solver(app, machine, kCtx.comm_model_registry()).evaluate(grid));
    wc::BatchPoint p;
    p.app = plan.add_app(app);
    p.machine = plan.add_machine(machine);
    p.grid = grid;
    points.push_back(p);
    plan.evaluate_point(p, scratch, batch);
    expect_identical(scalars.back(), batch, labels.back());
    if (HasFailure()) return;  // the first mismatching draw is reported
  }

  std::vector<wc::ModelResult> group(points.size());
  plan.evaluate_group(points, scratch, group);
  for (std::size_t k = 0; k < points.size() && !HasFailure(); ++k)
    expect_identical(scalars[k], group[k], labels[k] + " (group)");
}

namespace {

/// LogGP with every per-message cost moved by `shift` us, or made NaN at
/// one placement: costs no validated machine yields. Below zero a
/// candidate can lose to the recurrence's -1.0 sentinel, and a NaN loses
/// every compare, so the kernel's compares must match the scalar solver's
/// exactly.
class OffsetLogGp : public wave::loggp::CommModel {
 public:
  OffsetLogGp(const wave::loggp::MachineParams& p, double shift,
              bool nan_on_chip, bool nan_off_node)
      : CommModel(p),
        base_(p),
        shift_(shift),
        nan_on_chip_(nan_on_chip),
        nan_off_node_(nan_off_node) {}
  const std::string& name() const override { return name_; }
  double total(int bytes, wave::loggp::Placement where) const override {
    return offset(base_.total(bytes, where), where);
  }
  double send(int bytes, wave::loggp::Placement where) const override {
    return offset(base_.send(bytes, where), where);
  }
  double recv(int bytes, wave::loggp::Placement where) const override {
    return offset(base_.recv(bytes, where), where);
  }

 private:
  double offset(double t, wave::loggp::Placement where) const {
    if (where == wave::loggp::Placement::OnChip ? nan_on_chip_
                                                : nan_off_node_)
      return std::numeric_limits<double>::quiet_NaN();
    return t + shift_;
  }

  const std::string name_ = "offset-loggp";
  wave::loggp::LogGpModel base_;
  double shift_;
  bool nan_on_chip_;
  bool nan_off_node_;
};

}  // namespace

TEST(BatchSolver, NegativeAndNanCostsMatchScalar) {
  // Non-negative costs always beat the -1.0 sentinel. These backends do
  // not, and the kernel must still reproduce the scalar solver bit for bit.
  // On single-core nodes both paths also take the same route: the closed
  // form when the six off-node inputs are finite and >= 0 (the on-chip
  // costs, never used there, may be NaN), the recurrence otherwise.
  wave::loggp::CommModelRegistry registry;
  for (const auto& [name, shift, nan_on_chip, nan_off_node] :
       {std::tuple{"minus-5us", -5.0, false, false},
        std::tuple{"minus-1ms", -1000.0, false, false},
        std::tuple{"nan-on-chip", 0.0, true, false},
        std::tuple{"nan-off-node", 0.0, false, true}}) {
    registry.add(name, "test backend",
                 [shift, nan_on_chip, nan_off_node](
                     const wave::loggp::MachineParams& p,
                     const wave::loggp::CommModelOptions&) {
                   return std::make_unique<OffsetLogGp>(p, shift, nan_on_chip,
                                                        nan_off_node);
                 });
  }
  wc::BatchEval plan(registry);
  wc::BatchScratch scratch;
  wc::ModelResult batch;
  std::map<std::string, int> closed_forms;  // per backend, on 1x1 nodes
  for (const char* backend :
       {"minus-5us", "minus-1ms", "nan-on-chip", "nan-off-node"}) {
    for (const auto& [cx, cy] :
         {std::pair{1, 1}, std::pair{2, 1}, std::pair{2, 2}}) {
      wc::MachineConfig machine = wc::MachineConfig::xt4_dual_core();
      machine.cx = cx;
      machine.cy = cy;
      machine.comm_model = backend;
      for (const wc::AppParams& app : {wb::lu(), wb::chimaera()}) {
        for (const wave::topo::Grid grid :
             {wave::topo::Grid(1, 9), wave::topo::Grid(9, 1),
              wave::topo::Grid(7, 8), wave::topo::Grid(40, 17)}) {
          const std::string what =
              std::string(backend) + " grid " + std::to_string(grid.n()) +
              "x" + std::to_string(grid.m()) + " on " + std::to_string(cx) +
              "x" + std::to_string(cy) + " nodes";
          const wc::ModelResult scalar =
              wc::Solver(app, machine, registry).evaluate(grid);
          const wc::BatchPoint point{plan.add_app(app),
                                     plan.add_machine(machine), grid};
          plan.evaluate_point(point, scratch, batch);
          expect_identical(scalar, batch, what);

          // The result each route gives, from its kernel called directly.
          const wave::loggp::CommModel& comm = plan.comm(point.machine);
          wc::ModelResult want = wc::evaluate_r1(app, grid);
          const wk::FillCosts k = wc::fill_costs(app, machine, comm, want);
          const double off_node[] = {k.w,          k.wpre,
                                     k.total_ew[0], k.recv_ns[0],
                                     k.send_ew[0],  k.total_ns[0]};
          const bool closed =
              cx == 1 && cy == 1 &&
              std::all_of(std::begin(off_node), std::end(off_node),
                          [](double c) { return std::isfinite(c) && c >= 0; });
          const wk::FillCorners fill =
              closed ? wk::fill_closed_form(k, grid.n(), grid.m())
                     : recurrence_corners(k, grid.n(), grid.m(), cx, cy);
          wc::evaluate_r3_r5(app, machine, comm,
                             {fill.diag.total, fill.diag.comm},
                             {fill.full.total, fill.full.comm}, want);
          expect_identical(want, scalar,
                           what + (closed ? " (closed form)" : " (recurrence)"));
          closed_forms[backend] += closed;
        }
      }
    }
  }
  // Every 1x1 point of the NaN-on-chip backend takes the closed form; no
  // point of the NaN-off-node or the -1 ms backend does.
  EXPECT_EQ(closed_forms["nan-on-chip"], 8);
  EXPECT_EQ(closed_forms["nan-off-node"], 0);
  EXPECT_EQ(closed_forms["minus-1ms"], 0);
}

namespace {

/// LogGP with the on-chip Receive replaced by one value: a single extreme
/// cost next to finite ones, which no validated machine yields.
class OneCostLogGp : public wave::loggp::CommModel {
 public:
  OneCostLogGp(const wave::loggp::MachineParams& p, double on_chip_recv)
      : CommModel(p), base_(p), on_chip_recv_(on_chip_recv) {}
  const std::string& name() const override { return name_; }
  double total(int bytes, wave::loggp::Placement where) const override {
    return base_.total(bytes, where);
  }
  double send(int bytes, wave::loggp::Placement where) const override {
    return base_.send(bytes, where);
  }
  double recv(int bytes, wave::loggp::Placement where) const override {
    return where == wave::loggp::Placement::OnChip ? on_chip_recv_
                                                   : base_.recv(bytes, where);
  }

 private:
  const std::string name_ = "one-cost-loggp";
  wave::loggp::LogGpModel base_;
  double on_chip_recv_;
};

}  // namespace

TEST(BatchSolver, ExtremeCostsMatchScalarOnRowLaneGrids) {
  // Grids tall enough for the row lanes (m >= kernels::kRowLanesMinRows).
  // +inf, NaN and a negative cost keep the packed lanes; DBL_MAX is finite,
  // so it runs on the row lanes and its sums overflow to +inf mid-grid.
  wave::loggp::CommModelRegistry registry;
  const std::pair<const char*, double> cases[] = {
      {"plus-inf", std::numeric_limits<double>::infinity()},
      {"nan", std::numeric_limits<double>::quiet_NaN()},
      {"negative", -3.0},
      {"dbl-max", std::numeric_limits<double>::max()}};
  for (const auto& [name, value] : cases) {
    const double v = value;
    registry.add(name, "test backend",
                 [v](const wave::loggp::MachineParams& p,
                     const wave::loggp::CommModelOptions&) {
                   return std::make_unique<OneCostLogGp>(p, v);
                 });
  }
  wc::BatchEval plan(registry);
  wc::BatchScratch scratch;
  wc::ModelResult batch;
  for (const auto& [backend, value] : cases) {
    for (const auto& [cx, cy] : {std::pair{1, 2}, std::pair{2, 2}}) {
      wc::MachineConfig machine = wc::MachineConfig::xt4_dual_core();
      machine.cx = cx;
      machine.cy = cy;
      machine.comm_model = backend;
      std::vector<wc::BatchPoint> points;
      std::vector<wc::ModelResult> scalars;
      for (const wave::topo::Grid grid :
           {wave::topo::Grid(13, 12), wave::topo::Grid(64, 30),
            wave::topo::Grid(30, 64), wave::topo::Grid(100, 49)}) {
        scalars.push_back(wc::Solver(wb::lu(), machine, registry).evaluate(grid));
        points.push_back(
            {plan.add_app(wb::lu()), plan.add_machine(machine), grid});
        plan.evaluate_point(points.back(), scratch, batch);
        expect_identical(scalars.back(), batch,
                         std::string(backend) + " grid " +
                             std::to_string(grid.n()) + "x" +
                             std::to_string(grid.m()) + " on " +
                             std::to_string(cx) + "x" + std::to_string(cy) +
                             " nodes");
      }
      std::vector<wc::ModelResult> group(points.size());
      plan.evaluate_group(points, scratch, group);
      for (std::size_t k = 0; k < points.size(); ++k)
        expect_identical(scalars[k], group[k],
                         std::string(backend) + " group point " +
                             std::to_string(k));
    }
  }
}

// ---- the two fill schedules, run directly -------------------------------

namespace {

/// Seeded fill costs >= 0. Tie-heavy draws take every cost from {0, 1, 2},
/// so whole families of paths tie; some draws hold a -0.0, +inf or DBL_MAX.
wk::FillCosts draw_costs(wave::common::Rng& rng, bool ties) {
  auto cost = [&] {
    return ties ? static_cast<double>(rng.uniform_int(0, 2))
                : rng.uniform(0.0, 50.0);
  };
  wk::FillCosts k;
  double* all[] = {&k.w,           &k.wpre,       &k.total_ew[0],
                   &k.total_ew[1], &k.recv_ns[0], &k.recv_ns[1],
                   &k.send_ew[0],  &k.send_ew[1], &k.total_ns[0],
                   &k.total_ns[1]};
  for (double* c : all) *c = cost();
  double* odd = all[rng.uniform_int(0, 9)];
  switch (rng.uniform_int(0, 15)) {
    case 0: *odd = -0.0; break;
    case 1: *odd = std::numeric_limits<double>::infinity(); break;
    case 2: *odd = std::numeric_limits<double>::max(); break;
    default: break;
  }
  return k;
}

/// A quarter of the draws are tie-heavy.
wk::FillCosts draw_costs(wave::common::Rng& rng) {
  return draw_costs(rng, rng.uniform_int(0, 3) == 0);
}

/// row[1..n] of two runs, bit for bit.
::testing::AssertionResult same_row(const std::vector<wk::FillTime>& a,
                                    const std::vector<wk::FillTime>& b,
                                    int n) {
  for (int i = 1; i <= n; ++i)
    if (std::memcmp(&a[i], &b[i], sizeof a[i]) != 0)
      return ::testing::AssertionFailure()
             << "column " << i << ": {" << a[i].total << ", " << a[i].comm
             << "} vs {" << b[i].total << ", " << b[i].comm << "}";
  return ::testing::AssertionSuccess();
}

/// The packed and the row-lane schedule on one input, whole rows compared.
::testing::AssertionResult lanes_match(const wk::FillCosts& k, int n, int m,
                                       int cx, int cy,
                                       wk::FillRowLanes& lanes) {
  const std::vector<std::uint8_t> col = parity(n, cx), row = parity(m, cy);
  std::vector<wk::FillTime> packed(static_cast<std::size_t>(n) + 1);
  std::vector<wk::FillTime> rows(packed.size());
  wk::fill_packed_lanes(k, col.data(), row.data(), n, m, packed.data());
  wk::fill_row_lanes(k, col.data(), row.data(), n, m, lanes, rows.data());
  return same_row(packed, rows, n) << " on a " << n << "x" << m << " grid, "
                                   << cx << "x" << cy << " nodes";
}

}  // namespace

TEST(FillKernels, RowLanesMatchPackedLanesBitForBit) {
  if (!wk::has_row_lanes())
    GTEST_SKIP() << "this CPU lacks AVX-512F/VL, so the row-lane schedule "
                    "cannot run here";
  wk::FillRowLanes lanes;
  wave::common::Rng rng(28);
  // Every block height 1-24 and its remainders after full blocks (m - 1 =
  // 24q + r), on grids narrower than, as wide as and wider than a block.
  for (int m = 1; m <= 3 * 24 + 2; ++m)
    for (const int n : {1, 2, 7, 23, 24, 25, 61})
      ASSERT_TRUE(lanes_match(draw_costs(rng), n, m, 2, 1, lanes));
  // Every cost -0.0: every total stays -0.0 and every cell's candidates
  // tie, so each cell must go west with the sign bit the scalar adds give.
  const wk::FillCosts zeros{-0.0,         -0.0,         {-0.0, -0.0},
                            {-0.0, -0.0}, {-0.0, -0.0}, {-0.0, -0.0}};
  for (const int m : {12, 24, 25, 49})
    ASSERT_TRUE(lanes_match(zeros, 30, m, 2, 2, lanes));
  // Seeded draws over grid, node shape and costs.
  for (int d = 0; d < 3000; ++d) {
    const wk::FillCosts k = draw_costs(rng);
    const int n = static_cast<int>(rng.uniform_int(1, 300));
    const int m = static_cast<int>(rng.uniform_int(1, 90));
    const int cx = static_cast<int>(rng.uniform_int(1, 4));
    const int cy = static_cast<int>(rng.uniform_int(1, 4));
    ASSERT_TRUE(lanes_match(k, n, m, cx, cy, lanes)) << "draw " << d;
  }
}

namespace {

/// The point-lane schedule on one grid's fills, in calls of up to
/// kPointLanesMaxFills as BatchEval makes them, against the packed lanes
/// one fill at a time: both corners of every fill, bit for bit.
::testing::AssertionResult point_lanes_match(
    const std::vector<wk::FillPoint>& fills, int n, int m,
    wk::FillPointLanes& lanes) {
  std::vector<wk::FillTime> row(static_cast<std::size_t>(n) + 1);
  for (std::size_t f0 = 0; f0 < fills.size();
       f0 += wk::kPointLanesMaxFills) {
    const int count = static_cast<int>(std::min<std::size_t>(
        wk::kPointLanesMaxFills, fills.size() - f0));
    const wk::FillPoint* batch[wk::kPointLanesMaxFills];
    for (int c = 0; c < count; ++c) batch[c] = &fills[f0 + c];
    wk::FillCorners got[wk::kPointLanesMaxFills];
    wk::fill_point_lanes(batch, count, n, m, lanes, got);
    for (int c = 0; c < count; ++c) {
      const wk::FillPoint& f = *batch[c];
      const std::vector<std::uint8_t> col = parity(n, f.cx),
                                      rows = parity(m, f.cy);
      wk::fill_packed_lanes(f.costs, col.data(), rows.data(), n, m,
                            row.data());
      const wk::FillCorners want{row[1], row[n]};
      if (std::memcmp(&want, &got[c], sizeof want) != 0)
        return ::testing::AssertionFailure()
               << "fill " << f0 + c << " on a " << n << "x" << m
               << " grid, " << f.cx << "x" << f.cy << " nodes: {"
               << want.diag.total << ", " << want.diag.comm << "} {"
               << want.full.total << ", " << want.full.comm << "} vs {"
               << got[c].diag.total << ", " << got[c].diag.comm << "} {"
               << got[c].full.total << ", " << got[c].full.comm << "}";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(FillKernels, PointLanesMatchOneAtATimeBitForBit) {
  if (!wk::has_row_lanes())
    GTEST_SKIP() << "this CPU lacks AVX-512F/VL, so the point-lane schedule "
                    "cannot run here";
  wk::FillPointLanes lanes;
  wave::common::Rng rng(29);
  // Node shapes with cx * cy <= 8, mixed within a group.
  std::vector<std::pair<int, int>> shapes;
  for (const int cx : {1, 2, 4, 8})
    for (const int cy : {1, 2, 4, 8})
      if (cx * cy <= 8) shapes.emplace_back(cx, cy);
  auto pick = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };
  auto group = [&](bool ties, std::size_t size) {
    std::vector<wk::FillPoint> fills(size);
    for (wk::FillPoint& f : fills) {
      f.costs = draw_costs(rng, ties);
      std::tie(f.cx, f.cy) = shapes[pick(shapes.size())];
    }
    return fills;
  };
  // Every cost -0.0: every cell's candidates tie, so each must go west
  // with the sign bit the scalar adds give; one lane with all costs -0.0
  // next to others.
  const wk::FillCosts zeros{-0.0,         -0.0,         {-0.0, -0.0},
                            {-0.0, -0.0}, {-0.0, -0.0}, {-0.0, -0.0}};
  for (const auto& [n, m] : {std::pair{30, 1}, std::pair{30, 7},
                             std::pair{5, 20}}) {
    std::vector<wk::FillPoint> fills = group(false, 5);
    fills[2].costs = zeros;
    ASSERT_TRUE(point_lanes_match(fills, n, m, lanes));
    ASSERT_TRUE(point_lanes_match({{zeros, 2, 2}}, n, m, lanes));
  }
  // Seeded groups: every short side 1..kRowLanesMinRows - 1, as m on grids
  // at least as wide and as n on taller grids with m >= 12. A quarter are
  // tie-heavy; a quarter put a NaN or a negative cost in one lane, which
  // keeps the sentinel compare for the whole batch.
  constexpr int kGroups = 3300;
  int with_odd_lane = 0;
  for (int d = 0; d < kGroups; ++d) {
    const int short_side = 1 + d % (wk::kRowLanesMinRows - 1);
    const int across = static_cast<int>(rng.uniform_int(short_side, 300));
    const bool tall = d % 3 == 2;
    const int n = tall ? short_side : across;
    const int m = tall ? static_cast<int>(rng.uniform_int(
                             wk::kRowLanesMinRows, 90))
                       : short_side;
    std::vector<wk::FillPoint> fills =
        group(rng.uniform_int(0, 3) == 0,
              static_cast<std::size_t>(rng.uniform_int(1, 16)));
    if (rng.uniform_int(0, 3) == 0) {
      wk::FillCosts& odd = fills[pick(fills.size())].costs;
      double* all[] = {&odd.w,           &odd.wpre,       &odd.total_ew[0],
                       &odd.total_ew[1], &odd.recv_ns[0], &odd.recv_ns[1],
                       &odd.send_ew[0],  &odd.send_ew[1], &odd.total_ns[0],
                       &odd.total_ns[1]};
      *all[pick(std::size(all))] =
          rng.uniform_int(0, 1) == 0 ? std::numeric_limits<double>::quiet_NaN()
                                     : -rng.uniform(0.0, 50.0);
      ++with_odd_lane;
    }
    ASSERT_TRUE(point_lanes_match(fills, n, m, lanes)) << "group " << d;
  }
  EXPECT_GT(with_odd_lane, kGroups / 5);
}

namespace {

/// The ten fill costs of a point, restated from the public plan so the
/// tests below have an oracle independent of BatchEval's own.
wave::kernels::FillCosts fill_costs(const wc::BatchEval& plan,
                                    const wc::BatchPoint& p,
                                    const wc::ModelResult& res) {
  using wave::loggp::Placement;
  const wc::AppParams& app = plan.app(p.app);
  const wc::MachineConfig& mc = plan.machine(p.machine);
  const wave::loggp::CommModel& comm = plan.comm(p.machine);
  wave::kernels::FillCosts k;
  k.w = res.w;
  k.wpre = res.wpre;
  for (const Placement where : {Placement::OffNode, Placement::OnChip}) {
    const int on_chip = where == Placement::OnChip;
    double send = comm.send(res.msg_bytes_ew, where);
    if (app.nonblocking_sends)
      send = where == Placement::OffNode ? mc.loggp.off.o
             : comm.is_large(res.msg_bytes_ew) ? mc.loggp.on.o
                                               : mc.loggp.on.ocopy;
    k.total_ew[on_chip] = comm.total(res.msg_bytes_ew, where);
    k.recv_ns[on_chip] = comm.recv(res.msg_bytes_ns, where);
    k.send_ew[on_chip] = send;
    k.total_ns[on_chip] = comm.total(res.msg_bytes_ns, where);
  }
  return k;
}

/// The recurrence's whole input as the documented key of evaluate_group:
/// the bits of the ten fill costs, then cx, cy, n, m.
std::vector<std::uint64_t> fill_key(const wc::BatchEval& plan,
                                    const wc::BatchPoint& p,
                                    const wc::ModelResult& res) {
  const wave::kernels::FillCosts costs = fill_costs(plan, p, res);
  static_assert(sizeof costs == 10 * sizeof(std::uint64_t));
  std::vector<std::uint64_t> key(10);
  std::memcpy(key.data(), &costs, sizeof costs);
  const wc::MachineConfig& mc = plan.machine(p.machine);
  for (const int v : {mc.cx, mc.cy, p.grid.n(), p.grid.m()})
    key.push_back(static_cast<std::uint64_t>(v));
  return key;
}

/// Evaluates `points` as one group; checks every result against
/// evaluate_point and the recurrence count against the distinct keys.
/// Returns the count.
std::size_t expect_group_shares(const wc::BatchEval& plan,
                                const std::vector<wc::BatchPoint>& points,
                                const std::string& what) {
  wc::BatchScratch scratch;
  std::vector<wc::ModelResult> group(points.size());
  const std::size_t runs = plan.evaluate_group(points, scratch, group);
  std::set<std::vector<std::uint64_t>> keys;
  wc::ModelResult single;
  for (std::size_t k = 0; k < points.size(); ++k) {
    plan.evaluate_point(points[k], scratch, single);
    expect_identical(single, group[k], what + ", point " + std::to_string(k));
    keys.insert(fill_key(plan, points[k], single));
  }
  EXPECT_EQ(runs, keys.size()) << what;
  return runs;
}

}  // namespace

TEST(BatchSolver, GroupSharesFillsAndMatchesPointwise) {
  // Seeded draws of one group each: one app and grid, a machine on a
  // single-core and a multi-core node under all three backends, with
  // synchronization terms and non-blocking sends on and off. Sync terms
  // are added after r2, so they share fills; non-blocking sends change
  // only the east-west send cost, and the node shape only the parity.
  constexpr int kDraws = 300;
  wave::common::Rng rng(17);
  const std::pair<int, int> shapes[] = {{2, 1}, {1, 2}, {2, 2},
                                        {4, 1}, {4, 2}, {8, 2}};
  const wc::MachineConfig bases[] = {wc::MachineConfig::xt4_dual_core(),
                                     wc::MachineConfig::sp2_single_core()};
  const wc::AppParams apps[] = {wb::lu(), wb::sweep3d_20m(), wb::chimaera()};
  auto pick = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };

  wc::BatchEval plan(kCtx.comm_model_registry());
  std::size_t runs = 0, points_seen = 0;
  for (int d = 0; d < kDraws && !HasFailure(); ++d) {
    const wc::AppParams& base_app = apps[pick(std::size(apps))];
    wc::MachineConfig multi = bases[pick(std::size(bases))];
    std::tie(multi.cx, multi.cy) = shapes[pick(std::size(shapes))];
    wc::MachineConfig single = multi;
    single.cx = single.cy = 1;
    const wave::topo::Grid grid(static_cast<int>(rng.uniform_int(1, 40)),
                                static_cast<int>(rng.uniform_int(1, 40)));
    std::vector<wc::BatchPoint> group;
    for (const bool nonblocking : {false, true}) {
      wc::AppParams app = base_app;
      app.nonblocking_sends = nonblocking;
      for (wc::MachineConfig machine : {single, multi}) {
        for (const bool sync : {false, true}) {
          machine.synchronization_terms = sync;
          for (const char* backend : {"loggp", "loggps", "contention"}) {
            machine.comm_model = backend;
            group.push_back(
                {plan.add_app(app), plan.add_machine(machine), grid});
          }
        }
      }
    }
    runs += expect_group_shares(
        plan, group,
        "draw " + std::to_string(d) + ": grid " + std::to_string(grid.n()) +
            "x" + std::to_string(grid.m()) + ", node " +
            std::to_string(multi.cx) + "x" + std::to_string(multi.cy));
    points_seen += group.size();
  }
  // Sync terms alone halve the fills; backends share more.
  EXPECT_LE(2 * runs, points_seen);

  // Pinned: at 256x256 loggp and loggps price the fill alike on the
  // dual-core XT4, and contention equals them on single-core nodes.
  const std::uint32_t app = plan.add_app(wb::sweep3d_20m());
  for (const auto& [machine, fills] :
       {std::pair{wc::MachineConfig::xt4_dual_core(), std::size_t{2}},
        std::pair{wc::MachineConfig::xt4_single_core(), std::size_t{1}}}) {
    std::vector<wc::BatchPoint> group;
    for (const char* backend : {"loggp", "loggps", "contention"}) {
      wc::MachineConfig m = machine;
      m.comm_model = backend;
      group.push_back({app, plan.add_machine(m), wave::topo::Grid(256, 256)});
    }
    EXPECT_EQ(expect_group_shares(plan, group, machine.name), fills)
        << machine.name;
  }

  // One group of every shipped machine under every backend on three thin
  // grids: more distinct fills per grid than one point-lane batch holds,
  // on mixed node shapes, each point equal to the scalar Solver too.
  wave::Context shipped;
  ASSERT_TRUE(shipped.add_machine_dir(WAVE_MACHINES_DIR).is_ok());
  const char* const machines[] = {"xt4-dual", "xt4-single", "sp2",
                                  "fatnode-loggps", "quadcore-shared-bus"};
  wc::BatchEval shipped_plan(shipped.comm_model_registry());
  std::vector<wc::BatchPoint> thin;
  std::vector<wc::MachineConfig> configs;
  for (const wave::topo::Grid grid :
       {wave::topo::Grid(83, 1), wave::topo::Grid(83, 2),
        wave::topo::Grid(4871, 8)})
    for (const char* name : machines)
      for (const char* backend : {"loggp", "loggps", "contention"}) {
        wc::MachineConfig machine = shipped.resolve_machine(name);
        machine.comm_model = backend;
        configs.push_back(machine);
        thin.push_back({shipped_plan.add_app(wb::sweep3d_20m()),
                        shipped_plan.add_machine(machine), grid});
      }
  expect_group_shares(shipped_plan, thin, "shipped machines, thin grids");
  wc::BatchScratch scratch;
  std::vector<wc::ModelResult> results(thin.size());
  shipped_plan.evaluate_group(thin, scratch, results);
  for (std::size_t k = 0; k < thin.size(); ++k)
    expect_identical(
        wc::Solver(wb::sweep3d_20m(), configs[k], shipped.comm_model_registry())
            .evaluate(thin[k].grid),
        results[k],
        configs[k].name + "/" + configs[k].comm_model + " on " +
            std::to_string(thin[k].grid.n()) + "x" +
            std::to_string(thin[k].grid.m()));
}

TEST(BatchSolver, AddAppAndAddMachineMemoizePerAxisValue) {
  wc::BatchEval plan(kCtx.comm_model_registry());
  const std::uint32_t a0 = plan.add_app(wb::chimaera());
  const std::uint32_t a1 = plan.add_app(wb::chimaera());
  EXPECT_EQ(a0, a1);
  EXPECT_EQ(plan.app_count(), 1u);
  const std::uint32_t a2 = plan.add_app(wb::sweep3d_20m());
  EXPECT_NE(a0, a2);
  EXPECT_EQ(plan.app_count(), 2u);

  const std::uint32_t m0 = plan.add_machine(wc::MachineConfig::xt4_dual_core());
  const std::uint32_t m1 = plan.add_machine(wc::MachineConfig::xt4_dual_core());
  EXPECT_EQ(m0, m1);
  EXPECT_EQ(plan.machine_count(), 1u);
  // A different comm override is a different machine entry (its own
  // backend), even with identical LogGP numbers.
  wc::MachineConfig loggps = wc::MachineConfig::xt4_dual_core();
  loggps.comm_model = "loggps";
  EXPECT_NE(plan.add_machine(loggps), m0);
  EXPECT_EQ(plan.machine_count(), 2u);
}

TEST(BatchSolver, RejectsInvalidAxisValuesAtPlanTime) {
  wc::BatchEval plan(kCtx.comm_model_registry());
  wc::AppParams bad;  // default app: nx = 0, out of domain
  EXPECT_THROW(plan.add_app(bad), wave::common::contract_error);
  wc::MachineConfig unknown = wc::MachineConfig::xt4_dual_core();
  unknown.comm_model = "telepathy";
  EXPECT_THROW(plan.add_machine(unknown), wave::common::contract_error);
}

// ---- the full fill as a best staircase (a test oracle) -----------------

namespace {

/// StartP(n, m).total as the longest monotone path from (1,1) to (n,m)
/// with at most three turns: east to column a, south to row b, east to
/// column n, south to row m, or the same with south first. An east step
/// into column i on row j costs w + total_ew(i) + recv_ns(j), with no
/// receive on row 1; a south step into row j on column i costs
/// w + send_ew(i+1) + total_ns(j), with no send on column n. Those are the
/// recurrence's two candidates, so StartP(n, m) is the longest of all
/// paths. On nodes one processor wide or tall, min(cx, cy) = 1, three
/// turns suffice. Each path's length comes from prefix sums in long
/// double: O(1) per path, O(n * m) per grid.
double best_staircase(const wave::kernels::FillCosts& k, int cx, int cy,
                      int n, int m) {
  using LD = long double;
  const auto col_on = [cx](int i) { return (i - 2) / cx == (i - 1) / cx; };
  const auto row_on = [cy](int j) { return (j - 2) / cy == (j - 1) / cy; };
  // east[i]: the column parts of the east steps into columns 2..i;
  // recv[j]: the row part of an east step on row j. south[j] and send[i]
  // are the same for south steps.
  std::vector<LD> east(n + 1, 0.0L), send(n + 1, 0.0L);
  std::vector<LD> south(m + 1, 0.0L), recv(m + 1, 0.0L);
  for (int i = 2; i <= n; ++i)
    east[i] = east[i - 1] + k.w + k.total_ew[col_on(i)];
  for (int i = 1; i < n; ++i) send[i] = k.send_ew[col_on(i + 1)];
  for (int j = 2; j <= m; ++j) {
    south[j] = south[j - 1] + k.w + k.total_ns[row_on(j)];
    recv[j] = k.recv_ns[row_on(j)];
  }
  // Along row j from column a to b, and down column i from row a to b.
  const auto along = [&](int j, int a, int b) {
    return east[b] - east[a] + (b - a) * recv[j];
  };
  const auto down = [&](int i, int a, int b) {
    return south[b] - south[a] + (b - a) * send[i];
  };
  LD best = -std::numeric_limits<LD>::infinity();
  for (int a = 1; a <= n; ++a) {
    for (int b = 1; b <= m; ++b) {
      best = std::max(best, along(1, 1, a) + down(a, 1, b) + along(b, a, n) +
                                down(n, b, m));
      best = std::max(best, down(1, 1, b) + along(b, 1, a) + down(a, b, m) +
                                along(m, a, n));
    }
  }
  return static_cast<double>(k.wpre + best);
}

/// The recurrence's StartP(n, m).total for `point` and the staircase
/// oracle's. The recurrence kernel is called directly: BatchEval takes the
/// closed form on 1x1 nodes, and the oracle checks the recurrence there.
std::pair<double, double> full_fill_and_staircase(const wc::BatchEval& plan,
                                                  const wc::BatchPoint& point,
                                                  wk::FillRowLanes& lanes) {
  const wk::FillCosts costs = fill_costs(
      plan, point, wc::evaluate_r1(plan.app(point.app), point.grid));
  const wc::MachineConfig& mc = plan.machine(point.machine);
  const int n = point.grid.n(), m = point.grid.m();
  const std::vector<std::uint8_t> col = parity(n, mc.cx), row = parity(m, mc.cy);
  std::vector<wk::FillTime> start(static_cast<std::size_t>(n) + 1);
  wk::fill_recurrence(costs, col.data(), row.data(), n, m, lanes,
                      start.data());
  return {start[n].total, best_staircase(costs, mc.cx, mc.cy, n, m)};
}

/// 1e-12 relative, or the recurrence's own rounding bound when that is
/// larger: StartP(n, m).total sums at most 3 (n + m - 2) + 1 non-negative
/// doubles, each add rounding by at most 2^-53 relative. Only the one-row
/// grids of a prime P near 65,536 reach past 1e-12.
bool close_to(double kernel, double oracle, const wave::topo::Grid& grid) {
  const double adds = 3.0 * (grid.n() + grid.m() - 2) + 1.0;
  const double rel = std::max(1e-12, adds * std::ldexp(1.0, -53));
  return std::abs(kernel - oracle) <= rel * std::abs(kernel);
}

}  // namespace

TEST(FillStaircase, MatchesStartPOnSeededDrawsOfOneWideNodes) {
  wave::common::Rng rng(24);
  const std::pair<int, int> nodes[] = {{1, 1}, {2, 1}, {1, 2}, {4, 1},
                                       {1, 4}, {8, 1}, {1, 8}};
  const wc::MachineConfig bases[] = {wc::MachineConfig::xt4_dual_core(),
                                     wc::MachineConfig::xt4_single_core(),
                                     wc::MachineConfig::sp2_single_core()};
  const wc::AppParams apps[] = {wb::lu(), wb::sweep3d_20m(), wb::chimaera()};
  const char* backends[] = {"loggp", "loggps", "contention"};
  auto pick = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };
  wc::BatchEval plan(kCtx.comm_model_registry());
  wk::FillRowLanes lanes;
  for (int d = 0; d < 2000; ++d) {
    wc::AppParams app = apps[pick(std::size(apps))];
    app.nonblocking_sends = rng.uniform_int(0, 1) != 0;
    wc::MachineConfig machine = bases[pick(std::size(bases))];
    std::tie(machine.cx, machine.cy) = nodes[pick(std::size(nodes))];
    machine.synchronization_terms = false;
    machine.comm_model = backends[pick(std::size(backends))];
    const wave::topo::Grid grid(static_cast<int>(rng.uniform_int(1, 40)),
                                static_cast<int>(rng.uniform_int(1, 40)));
    const auto [kernel, oracle] = full_fill_and_staircase(
        plan, {plan.add_app(app), plan.add_machine(machine), grid}, lanes);
    ASSERT_TRUE(close_to(kernel, oracle, grid))
        << "draw " << d << ": " << app.name << " " << grid.n() << "x"
        << grid.m() << " on " << machine.cx << "x" << machine.cy << " "
        << machine.name << "/" << machine.comm_model << ": kernel "
        << kernel << ", staircase " << oracle;
  }
}

TEST(FillStaircase, MatchesStartPOnShippedOneWideMachinesUpToP65536) {
  wc::BatchEval plan(kCtx.comm_model_registry());
  wk::FillRowLanes lanes;
  int checked = 0;
  for (wc::MachineConfig machine : {wc::MachineConfig::xt4_single_core(),
                                    wc::MachineConfig::xt4_dual_core(),
                                    wc::MachineConfig::sp2_single_core()}) {
    machine.synchronization_terms = false;
    const std::uint32_t mid = plan.add_machine(machine);
    for (const wc::AppParams& app :
         {wb::lu(), wb::sweep3d_20m(), wb::chimaera()}) {
      const std::uint32_t aid = plan.add_app(app);
      for (const int p : {1, 2, 17, 64, 1000, 1024, 4096, 6400, 16384,
                          65521, 65536}) {
        const wave::topo::Grid square = wave::topo::closest_to_square(p);
        for (const wave::topo::Grid grid :
             {square, wave::topo::Grid(square.m(), square.n())}) {
          const auto [kernel, oracle] =
              full_fill_and_staircase(plan, {aid, mid, grid}, lanes);
          EXPECT_TRUE(close_to(kernel, oracle, grid))
              << app.name << " P = " << p << " (" << grid.n() << "x"
              << grid.m() << ") on " << machine.name << ": kernel " << kernel
              << ", staircase " << oracle;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 3 * 3 * 11 * 2);
}

// ---- the closed-form fill on single-core nodes -------------------------

namespace {

/// Both corners of the closed form against the recurrence's (the packed
/// lanes on all-off-node bitmaps): totals and comm shares, within the
/// recurrence's own rounding (close_to).
::testing::AssertionResult closed_form_matches(const wk::FillCosts& k, int n,
                                               int m) {
  const wk::FillCorners closed = wk::fill_closed_form(k, n, m);
  const wk::FillCorners recurrence = recurrence_corners(k, n, m, 1, 1);
  const std::pair<const char*, std::pair<double, double>> values[] = {
      {"diagonal total", {closed.diag.total, recurrence.diag.total}},
      {"diagonal comm", {closed.diag.comm, recurrence.diag.comm}},
      {"full total", {closed.full.total, recurrence.full.total}},
      {"full comm", {closed.full.comm, recurrence.full.comm}}};
  for (const auto& [what, v] : values)
    if (!close_to(v.first, v.second, wave::topo::Grid(n, m)))
      return ::testing::AssertionFailure()
             << what << " on " << n << "x" << m << ": closed form "
             << v.first << ", recurrence " << v.second;
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(FillClosedForm, MatchesTheRecurrenceOnSeededDraws) {
  // Grids up to 300 x 300, a third of them 1 x P or P x 1 lines, on the
  // single-core machines' costs under every backend, with blocking and
  // non-blocking sends. A quarter of the draws take every cost from
  // {0, 1, 2}, so whole families of paths tie exactly; another quarter
  // zero the Receive or the Send, so a row-1 hop costs what any east hop
  // does (or a column-n hop what any south hop does).
  wave::common::Rng rng(34);
  const wc::MachineConfig bases[] = {wc::MachineConfig::xt4_single_core(),
                                     wc::MachineConfig::sp2_single_core()};
  const wc::AppParams apps[] = {wb::lu(), wb::sweep3d_20m(), wb::chimaera()};
  const char* backends[] = {"loggp", "loggps", "contention"};
  auto pick = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };
  wc::BatchEval plan(kCtx.comm_model_registry());
  constexpr int kDraws = 2400;
  int lines = 0, tied = 0, nonblocking = 0;
  for (int d = 0; d < kDraws; ++d) {
    wc::AppParams app = apps[pick(std::size(apps))];
    app.nonblocking_sends = rng.uniform_int(0, 1) != 0;
    wc::MachineConfig machine = bases[pick(std::size(bases))];
    machine.comm_model = backends[pick(std::size(backends))];
    int n = static_cast<int>(rng.uniform_int(1, 300));
    int m = static_cast<int>(rng.uniform_int(1, 300));
    switch (rng.uniform_int(0, 5)) {
      case 0: n = 1; break;
      case 1: m = 1; break;
      default: break;
    }
    const wc::BatchPoint point{plan.add_app(app), plan.add_machine(machine),
                               wave::topo::Grid(n, m)};
    wk::FillCosts k =
        fill_costs(plan, point, wc::evaluate_r1(app, point.grid));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        for (double* c : {&k.w, &k.wpre, &k.total_ew[0], &k.recv_ns[0],
                          &k.send_ew[0], &k.total_ns[0]})
          *c = static_cast<double>(rng.uniform_int(0, 2));
        ++tied;
        break;
      case 1:
        (rng.uniform_int(0, 1) == 0 ? k.recv_ns[0] : k.send_ew[0]) = 0.0;
        ++tied;
        break;
      default: break;
    }
    lines += n == 1 || m == 1;
    nonblocking += app.nonblocking_sends;
    ASSERT_TRUE(wk::closed_form_applies(k, 1, 1)) << "draw " << d;
    ASSERT_TRUE(closed_form_matches(k, n, m))
        << "draw " << d << ": " << app.name << " on " << machine.name << "/"
        << machine.comm_model << ", nonblocking " << app.nonblocking_sends;
  }
  EXPECT_GT(lines, kDraws / 5);
  EXPECT_GT(tied, kDraws / 3);
  EXPECT_GT(nonblocking, kDraws / 3);
}

TEST(FillClosedForm, IsTheRouteOfShippedSingleCoreMachinesUpToP65536) {
  // The shipped single-core machines under every backend: the closed form
  // agrees with the recurrence, and the scalar Solver and BatchEval both
  // return its corners bit for bit (synchronization terms off, so
  // t_diagfill and t_fullfill are the corners themselves).
  wave::Context shipped;
  ASSERT_TRUE(shipped.add_machine_dir(WAVE_MACHINES_DIR).is_ok());
  const wave::loggp::CommModelRegistry& registry =
      shipped.comm_model_registry();
  wc::BatchEval plan(registry);
  wc::BatchScratch scratch;
  wc::ModelResult batch;
  int checked = 0;
  for (const char* name : {"xt4-single", "sp2"}) {
    for (const char* backend : {"loggp", "loggps", "contention"}) {
      wc::MachineConfig machine = shipped.resolve_machine(name);
      ASSERT_EQ(machine.cx * machine.cy, 1) << name;
      machine.comm_model = backend;
      machine.synchronization_terms = false;
      const std::uint32_t mid = plan.add_machine(machine);
      for (const wc::AppParams& app :
           {wb::lu(), wb::sweep3d_20m(), wb::chimaera()}) {
        const std::uint32_t aid = plan.add_app(app);
        for (const int p : {1, 2, 17, 64, 1024, 65521, 65536}) {
          const wave::topo::Grid square = wave::topo::closest_to_square(p);
          for (const wave::topo::Grid grid :
               {square, wave::topo::Grid(square.m(), square.n())}) {
            const std::string what = app.name + " P = " + std::to_string(p) +
                                     " (" + std::to_string(grid.n()) + "x" +
                                     std::to_string(grid.m()) + ") on " +
                                     name + "/" + backend;
            const wk::FillCosts k = fill_costs(
                plan, {aid, mid, grid}, wc::evaluate_r1(app, grid));
            EXPECT_TRUE(closed_form_matches(k, grid.n(), grid.m())) << what;
            const wk::FillCorners closed =
                wk::fill_closed_form(k, grid.n(), grid.m());
            const wc::ModelResult scalar =
                wc::Solver(app, machine, registry).evaluate(grid);
            plan.evaluate_point({aid, mid, grid}, scratch, batch);
            for (const wc::ModelResult* r : {&scalar, &std::as_const(batch)}) {
              EXPECT_TRUE(split_equal(r->t_diagfill,
                                      {closed.diag.total, closed.diag.comm}))
                  << what;
              EXPECT_TRUE(split_equal(r->t_fullfill,
                                      {closed.full.total, closed.full.comm}))
                  << what;
            }
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * 3 * 3 * 7 * 2);
}

// ---- the candidate-column fill on 2-D nodes ------------------------------

namespace {

/// Both corners of fill_candidate_columns against the recurrence's (the
/// packed lanes on the node's parity bitmaps): bit for bit when `exact`
/// (dyadic costs, so every sum of both is exact), else within close_to.
::testing::AssertionResult candidate_columns_match(const wk::FillCosts& k,
                                                   int cx, int cy, int n,
                                                   int m, bool exact) {
  const wk::FillCorners route = wk::fill_candidate_columns(k, cx, cy, n, m);
  const wk::FillCorners recurrence = recurrence_corners(k, n, m, cx, cy);
  const std::pair<const char*, std::pair<double, double>> values[] = {
      {"diagonal total", {route.diag.total, recurrence.diag.total}},
      {"diagonal comm", {route.diag.comm, recurrence.diag.comm}},
      {"full total", {route.full.total, recurrence.full.total}},
      {"full comm", {route.full.comm, recurrence.full.comm}}};
  for (const auto& [what, v] : values) {
    const bool ok = exact ? static_cast<bool>(bits_equal(v.first, v.second))
                          : close_to(v.first, v.second, wave::topo::Grid(n, m));
    if (!ok)
      return ::testing::AssertionFailure()
             << what << " on " << n << "x" << m << " (" << cx << "x" << cy
             << " nodes): candidate columns " << v.first << ", recurrence "
             << v.second;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(FillCandidateColumns, MatchesTheRecurrenceOnSeededDraws) {
  // 2-D nodes (cx, cy in {2, 4, 8}) on grids up to 300 x 300, a third of
  // them 1 x P or P x 1 lines, with the costs of every backend under
  // blocking and non-blocking sends. A third of the draws take all ten
  // costs from {0, 1, 2}: dyadic, so both corners must match the
  // recurrence bit for bit while whole families of paths tie. Another
  // quarter zero the Receive or the Send on both placements, so row 1's
  // east hops (or column n's south hops) cost what the others do.
  wave::common::Rng rng(35);
  const int sides[] = {2, 4, 8};
  const wc::AppParams apps[] = {wb::lu(), wb::sweep3d_20m(), wb::chimaera()};
  const char* backends[] = {"loggp", "loggps", "contention"};
  auto pick = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };
  wc::BatchEval plan(kCtx.comm_model_registry());
  constexpr int kDraws = 1000;
  int lines = 0, exact = 0, zeroed = 0, nonblocking = 0;
  for (int d = 0; d < kDraws; ++d) {
    wc::AppParams app = apps[pick(std::size(apps))];
    app.nonblocking_sends = rng.uniform_int(0, 1) != 0;
    wc::MachineConfig machine = wc::MachineConfig::xt4_dual_core();
    machine.cx = sides[pick(std::size(sides))];
    machine.cy = sides[pick(std::size(sides))];
    machine.comm_model = backends[pick(std::size(backends))];
    int n = static_cast<int>(rng.uniform_int(1, 300));
    int m = static_cast<int>(rng.uniform_int(1, 300));
    switch (rng.uniform_int(0, 5)) {
      case 0: n = 1; break;
      case 1: m = 1; break;
      default: break;
    }
    const wc::BatchPoint point{plan.add_app(app), plan.add_machine(machine),
                               wave::topo::Grid(n, m)};
    wk::FillCosts k =
        fill_costs(plan, point, wc::evaluate_r1(app, point.grid));
    bool dyadic = false;
    switch (rng.uniform_int(0, 11)) {
      case 0: case 1: case 2: case 3:
        for (double* c : {&k.w, &k.wpre, &k.total_ew[0], &k.total_ew[1],
                          &k.recv_ns[0], &k.recv_ns[1], &k.send_ew[0],
                          &k.send_ew[1], &k.total_ns[0], &k.total_ns[1]})
          *c = static_cast<double>(rng.uniform_int(0, 2));
        dyadic = true;
        ++exact;
        break;
      case 4: case 5: case 6:
        for (double& c : rng.uniform_int(0, 1) == 0 ? k.recv_ns : k.send_ew)
          c = 0.0;
        ++zeroed;
        break;
      default: break;
    }
    lines += n == 1 || m == 1;
    nonblocking += app.nonblocking_sends;
    ASSERT_TRUE(wk::closed_form_applies(k, machine.cx, machine.cy))
        << "draw " << d;
    ASSERT_TRUE(
        candidate_columns_match(k, machine.cx, machine.cy, n, m, dyadic))
        << "draw " << d << ": " << app.name << " on " << machine.comm_model
        << ", nonblocking " << app.nonblocking_sends;
  }
  EXPECT_GT(lines, kDraws / 5);
  EXPECT_GT(exact, kDraws / 4);
  EXPECT_GT(zeroed, kDraws / 6);
  EXPECT_GT(nonblocking, kDraws / 3);
}

TEST(FillCandidateColumns, IsTheRouteOfShippedTwoDMachinesUpToP65536) {
  // The shipped 2-D machines under every backend: the candidate columns
  // agree with the recurrence, and the scalar Solver and BatchEval both
  // return their corners bit for bit (synchronization terms off, so
  // t_diagfill and t_fullfill are the corners themselves). xt4-dual's
  // 1 x 2 nodes still take the recurrence (checked up to P = 1,024: the
  // scalar recurrence at P = 65,536 is FillStaircase's to time).
  wave::Context shipped;
  ASSERT_TRUE(shipped.add_machine_dir(WAVE_MACHINES_DIR).is_ok());
  const wave::loggp::CommModelRegistry& registry =
      shipped.comm_model_registry();
  wc::BatchEval plan(registry);
  wc::BatchScratch scratch;
  wc::ModelResult batch;
  int checked = 0, recurrences = 0;
  for (const char* name :
       {"fatnode-loggps", "quadcore-shared-bus", "xt4-dual"}) {
    for (const char* backend : {"loggp", "loggps", "contention"}) {
      wc::MachineConfig machine = shipped.resolve_machine(name);
      machine.comm_model = backend;
      machine.synchronization_terms = false;
      const bool two_d = machine.cx >= 2 && machine.cy >= 2;
      const std::uint32_t mid = plan.add_machine(machine);
      for (const wc::AppParams& app :
           {wb::lu(), wb::sweep3d_20m(), wb::chimaera()}) {
        const std::uint32_t aid = plan.add_app(app);
        for (const int p : {1, 2, 17, 64, 1024, 65521, 65536}) {
          if (!two_d && p > 1024) continue;
          const wave::topo::Grid square = wave::topo::closest_to_square(p);
          for (const wave::topo::Grid grid :
               {square, wave::topo::Grid(square.m(), square.n())}) {
            const int n = grid.n(), m = grid.m();
            const std::string what = app.name + " P = " + std::to_string(p) +
                                     " (" + std::to_string(n) + "x" +
                                     std::to_string(m) + ") on " + name +
                                     "/" + backend;
            const wk::FillCosts k =
                fill_costs(plan, {aid, mid, grid}, wc::evaluate_r1(app, grid));
            ASSERT_EQ(wk::closed_form_applies(k, machine.cx, machine.cy),
                      two_d)
                << what;
            const wk::FillCorners want =
                two_d ? wk::fill_candidate_columns(k, machine.cx, machine.cy,
                                                   n, m)
                      : recurrence_corners(k, n, m, machine.cx, machine.cy);
            if (two_d)
              EXPECT_TRUE(candidate_columns_match(k, machine.cx, machine.cy,
                                                  n, m, false))
                  << what;
            const wc::ModelResult scalar =
                wc::Solver(app, machine, registry).evaluate(grid);
            plan.evaluate_point({aid, mid, grid}, scratch, batch);
            for (const wc::ModelResult* r : {&scalar, &std::as_const(batch)}) {
              EXPECT_TRUE(split_equal(r->t_diagfill,
                                      {want.diag.total, want.diag.comm}))
                  << what;
              EXPECT_TRUE(split_equal(r->t_fullfill,
                                      {want.full.total, want.full.comm}))
                  << what;
            }
            ++checked;
            recurrences += !two_d;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, (2 * 7 + 5) * 3 * 3 * 2);
  EXPECT_EQ(recurrences, 5 * 3 * 3 * 2);
}

namespace {

/// An analytic sweep with repeated axis values (exercising plan
/// memoization) plus a filter (exercising index/seed stability through the
/// batched route).
wr::SweepGrid analytic_sweep() {
  wr::SweepGrid grid;
  grid.apps({{"Sweep3D", wb::sweep3d_20m()}, {"Chimaera", wb::chimaera()}});
  grid.machines({{"dual", wc::MachineConfig::xt4_dual_core()},
                 {"single", wc::MachineConfig::xt4_single_core()}});
  grid.comm_models(kCtx, {"loggp", "loggps", "contention"});
  grid.processors({16, 64, 256, 1024});
  grid.values("Htile", {1, 2, 5},
              [](wr::Scenario& s, double h) { s.app.htile = h; });
  return grid;
}

/// The scalar reference the batch route must match: every point through
/// evaluate_scenario on one thread.
std::vector<wr::RunRecord> run_scalar(const std::vector<wr::Scenario>& points) {
  return wr::BatchRunner(kCtx, wr::BatchRunner::Options(1))
      .run(points,
           [](const wr::Scenario& s) { return wr::evaluate_scenario(kCtx, s); });
}

}  // namespace

TEST(BatchRunnerRoute, BatchOnAndOffSerializeIdentically) {
  const auto points = analytic_sweep().points();
  const std::string off = wr::to_csv(run_scalar(points));
  const std::string on = wr::to_csv(
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(1)).run(points));
  EXPECT_EQ(off, on);
}

TEST(BatchRunnerRoute, BatchedRouteIsThreadCountInvariant) {
  const auto points = analytic_sweep().points();
  const std::string one = wr::to_csv(
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(1)).run(points));
  const std::string four = wr::to_csv(
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(4)).run(points));
  EXPECT_EQ(one, four);
}

TEST(BatchRunnerRoute, FilteredGridKeepsIndicesThroughTheBatchedRoute) {
  wr::SweepGrid grid = analytic_sweep();
  grid.filter([](const wr::Scenario& s) { return s.param("Htile") > 1.0; });
  const auto off = run_scalar(grid.points());
  const auto on =
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(2)).run(grid);
  ASSERT_EQ(off.size(), on.size());
  ASSERT_FALSE(off.empty());
  for (std::size_t i = 0; i < off.size(); ++i)
    EXPECT_EQ(off[i].index, on[i].index);
  EXPECT_EQ(wr::to_csv(off), wr::to_csv(on));
}

TEST(BatchRunnerRoute, MixedEngineSweepRoutesOnlyAnalyticPoints) {
  // DES points must keep the scalar evaluators: a mixed sweep through the
  // default (batch-routed) runner serializes identically to the scalar
  // reference.
  wc::benchmarks::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 32;
  wr::SweepGrid grid;
  grid.base().app = wb::sweep3d(cfg);
  grid.base().machine = wc::MachineConfig::xt4_dual_core();
  grid.processors({4, 16});
  grid.engines({wr::Engine::Model, wr::Engine::Simulation});
  EXPECT_EQ(
      wr::to_csv(run_scalar(grid.points())),
      wr::to_csv(
          wr::BatchRunner(kCtx, wr::BatchRunner::Options(1)).run(grid)));
}

TEST(BatchRunnerRoute, SinglePointSweepBatchRoutes) {
  wr::SweepGrid grid;
  grid.base().app = wb::chimaera();
  grid.processors({256});
  const auto off = run_scalar(grid.points());
  const auto on =
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(1)).run(grid);
  ASSERT_EQ(on.size(), 1u);
  EXPECT_EQ(wr::to_csv(off), wr::to_csv(on));
}

TEST(BatchRunnerRoute, EqualDesPointsShareOneRunAndMatchScalar) {
  // DES points under three backends, with a repeated processor count. On
  // xt4-single the backends build equal SimMachines, so each processor
  // count simulates once. On sp2, with every message above the eager
  // limit, loggps charges its rendezvous sync cost s, so its points
  // simulate on their own and must not take loggp's result.
  wc::benchmarks::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 32;
  wc::MachineConfig sp2 = wc::MachineConfig::sp2_single_core();
  sp2.loggp.eager_limit_bytes = 1;
  ASSERT_GT(sp2.loggp.off.sync, 0.0);
  wr::SweepGrid grid;
  grid.base().app = wb::sweep3d(cfg);
  grid.base().engine = wr::Engine::Simulation;
  grid.machines({{"xt4-single", wc::MachineConfig::xt4_single_core()},
                 {"sp2", sp2}});
  grid.comm_models(kCtx, {"loggp", "loggps", "contention"});
  grid.processors({16, 4, 16});
  std::vector<wr::Scenario> points = grid.points();
  ASSERT_EQ(points.size(), 18u);

  // fatnode-loggps (2 x 4 cores, two buses) and two twins. The DES gives
  // a node one bus whatever buses_per_node says, so the one-bus twin
  // builds an equal SimMachine and shares the shipped machine's run; the
  // model's Table 6 multipliers still tell the two apart. The cx = 1
  // twin packs ranks on other nodes and simulates on its own.
  wave::Context shipped;
  ASSERT_TRUE(shipped.add_machine_dir(WAVE_MACHINES_DIR).is_ok());
  const wc::MachineConfig fat = shipped.resolve_machine("fatnode-loggps");
  wc::MachineConfig one_bus = fat;
  one_bus.buses_per_node = 1;
  wc::MachineConfig narrow = fat;
  narrow.cx = 1;
  const auto sim_machine = [](const wc::MachineConfig& m) {
    return wave::workloads::sim_machine(m, kCtx.comm_model_registry());
  };
  ASSERT_NE(fat.buses_per_node, 1);
  ASSERT_TRUE(sim_machine(fat) == sim_machine(one_bus));
  wr::SweepGrid fat_grid;
  fat_grid.base() = grid.base();
  fat_grid.machines(
      {{"fatnode", fat}, {"fatnode-1bus", one_bus}, {"fatnode-cx1", narrow}});
  fat_grid.processors({16});
  const std::size_t first_fat = points.size();
  for (wr::Scenario s : fat_grid.points()) {
    s.index = points.size();
    points.push_back(std::move(s));
  }
  ASSERT_EQ(points.size(), 21u);

  const std::vector<wr::RunRecord> off = run_scalar(points);
  for (const int threads : {1, 3, 8}) {
    const wr::BatchRunner::Options options(threads);
    EXPECT_EQ(wr::to_csv(off),
              wr::to_csv(wr::BatchRunner(kCtx, options).run(points)))
        << "threads " << threads;
  }
  const auto sim_us = [&](const std::string& machine,
                          const std::string& comm) {
    for (const wr::RunRecord& r : off)
      if (r.label("machine") == machine && r.label("comm") == comm &&
          r.label("P") == "16")
        return r.metric("sim_iter_us");
    ADD_FAILURE() << machine << " " << comm << " not in the sweep";
    return 0.0;
  };
  EXPECT_EQ(sim_us("xt4-single", "loggp"), sim_us("xt4-single", "loggps"));
  EXPECT_NE(sim_us("sp2", "loggp"), sim_us("sp2", "loggps"));
  EXPECT_EQ(off[first_fat].metrics, off[first_fat + 1].metrics);
  EXPECT_NE(off[first_fat].metric("sim_iter_us"),
            off[first_fat + 2].metric("sim_iter_us"));
  std::vector<wr::Scenario> models(points.begin() + first_fat, points.end());
  for (wr::Scenario& s : models) s.engine = wr::Engine::Model;
  const std::vector<wr::RunRecord> model = run_scalar(models);
  EXPECT_NE(model[0].metric("model_iter_us"), model[1].metric("model_iter_us"));

  // A point with a registry attached never shares: its own run publishes
  // the engine's counters into it.
  wave::obs::MetricsRegistry registry;
  points.back().metrics = &registry;
  EXPECT_EQ(wr::to_csv(off),
            wr::to_csv(wr::BatchRunner(kCtx, wr::BatchRunner::Options(3))
                           .run(points)));
  EXPECT_GT(registry.counter("sim_events_total").value(), 0u);
}

TEST(BatchRunnerRoute, SharedFillUnitsMatchScalarAtAnyThreadsAndChunk) {
  // Three machines under three backends with repeated processor counts,
  // so units hold points that share fills, duplicates and points that do
  // not; plus one DES point, a unit of its own under the chunk = 1 rule.
  wc::benchmarks::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 32;
  wr::SweepGrid grid;
  grid.base().app = wb::sweep3d(cfg);
  grid.machines({{"xt4-dual", wc::MachineConfig::xt4_dual_core()},
                 {"xt4-single", wc::MachineConfig::xt4_single_core()},
                 {"sp2", wc::MachineConfig::sp2_single_core()}});
  grid.comm_models(kCtx, {"loggp", "loggps", "contention"});
  grid.processors({16, 64, 256, 64, 1024, 16});
  std::vector<wr::Scenario> points = grid.points();
  wr::Scenario des = points.front();
  des.engine = wr::Engine::Simulation;
  des.grid = wave::topo::Grid(2, 2);
  des.index = points.size();
  points.push_back(des);

  const std::string off = wr::to_csv(run_scalar(points));
  for (const int threads : {1, 3, 8}) {
    const wr::BatchRunner::Options options(threads);
    EXPECT_EQ(off, wr::to_csv(wr::BatchRunner(kCtx, options).run(points)))
        << "threads " << threads;
  }

  // An attached registry sees each point's latency exactly once.
  wave::obs::MetricsRegistry registry;
  for (wr::Scenario& s : points) s.metrics = &registry;
  wr::BatchRunner(kCtx, wr::BatchRunner::Options(3)).run(points);
  EXPECT_EQ(registry.histogram("runner_point_latency_us").count(),
            points.size());

  // A 40-level machine-parameter sweep at one thin grid (4871 x 8): one
  // app and grid, so the route cuts it into capped units.
  wr::SweepGrid sweep;
  sweep.base().app = wb::sweep3d(cfg);
  sweep.base().machine = wc::MachineConfig::xt4_dual_core();
  sweep.processors({4871 * 8});
  std::vector<double> latencies;
  for (int k = 0; k < 40; ++k) latencies.push_back(0.1 + 0.05 * k);
  sweep.values("L", latencies,
               [](wr::Scenario& s, double l) { s.machine.loggp.off.L = l; });
  std::vector<wr::Scenario> levels = sweep.points();
  ASSERT_EQ(levels.size(), 40u);
  ASSERT_EQ(levels.front().grid.m(), 8);
  const std::string scalar = wr::to_csv(run_scalar(levels));
  for (const int threads : {1, 3, 8}) {
    wave::obs::MetricsRegistry sweep_registry;
    for (wr::Scenario& s : levels) s.metrics = &sweep_registry;
    EXPECT_EQ(scalar, wr::to_csv(wr::BatchRunner(
                                     kCtx, wr::BatchRunner::Options(threads))
                                     .run(levels)))
        << "threads " << threads;
    EXPECT_EQ(sweep_registry.histogram("runner_point_latency_us").count(),
              levels.size())
        << "threads " << threads;
  }
}
