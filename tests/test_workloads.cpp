// Tests for the simulated wavefront workloads: spec derivation, behaviour
// of the rank programs, and emergent sweep structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/benchmarks.h"
#include "core/solver.h"
#include "loggp/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/allreduce_storm.h"
#include "workloads/builtin.h"
#include "workloads/pingpong.h"

namespace wc = wave::core;
namespace wb = wave::core::benchmarks;
namespace ww = wave::workloads;
namespace wt = wave::topo;

#ifndef WAVE_MACHINES_DIR
#define WAVE_MACHINES_DIR "machines"
#endif

namespace {
const wc::MachineConfig kSingle = wc::MachineConfig::xt4_single_core();
const wc::MachineConfig kDual = wc::MachineConfig::xt4_dual_core();
const wave::loggp::CommModelRegistry kReg;

wc::AppParams small_sweep3d() {
  wb::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 64;
  return wb::sweep3d(cfg);
}
}  // namespace

TEST(Spec, DerivesFromTable3) {
  const wc::AppParams app = small_sweep3d();  // Htile = 2
  const auto spec = ww::make_spec(app, wt::Grid(4, 4));
  EXPECT_EQ(spec.tiles_per_stack, 32);  // 64 / 2
  EXPECT_DOUBLE_EQ(spec.w_tile, app.wg * 2.0 * 16.0 * 16.0);
  EXPECT_EQ(spec.msg_bytes_ew, app.message_bytes_ew(4, 4));
  EXPECT_EQ(static_cast<int>(spec.sweep_origins.size()), 8);
  EXPECT_EQ(spec.allreduce_count, 2);
}

TEST(Spec, StencilWorkScalesWithLocalCells) {
  const wc::AppParams app = wb::lu();
  const auto spec = ww::make_spec(app, wt::Grid(9, 9));
  const double local_cells = (162.0 / 9) * (162.0 / 9) * 162.0;
  EXPECT_DOUBLE_EQ(spec.stencil_compute,
                   app.nonwavefront.stencil_work_per_cell * local_cells);
}

TEST(SimulateWavefront, SingleRankIsPureCompute) {
  const wc::AppParams app = small_sweep3d();
  const auto res = ww::simulate_wavefront(
      app, ww::sim_machine(kSingle, kReg), wt::Grid(1, 1), 1);
  const auto spec = ww::make_spec(app, wt::Grid(1, 1));
  const double expected =
      8.0 * spec.tiles_per_stack * spec.w_tile;  // no comms, no allreduce
  EXPECT_NEAR(res.makespan_us, expected, 1e-6);
  EXPECT_EQ(res.messages, 0u);
}

TEST(SimulateWavefront, MessageCountMatchesStructure) {
  // On an n x m grid each sweep sends (n-1)*m EW and n*(m-1) NS messages
  // per tile step; all-reduce adds log2(P) exchanges (2 messages each per
  // rank pair).
  const wc::AppParams app = small_sweep3d();
  const wave::topo::Grid grid(4, 2);
  const auto spec = ww::make_spec(app, grid);
  const auto res = ww::simulate_wavefront(
      app, ww::sim_machine(kSingle, kReg), grid, 1);
  const std::uint64_t per_sweep =
      static_cast<std::uint64_t>((4 - 1) * 2 + 4 * (2 - 1)) *
      spec.tiles_per_stack;
  const std::uint64_t allreduce_msgs = 2ULL * 3ULL * 8ULL;  // 2 ars * log2(8)*8
  EXPECT_EQ(res.messages, 8ULL * per_sweep + allreduce_msgs);
}

TEST(SimulateWavefront, PaperScaleRecordAtP4096IsPinned) {
  // Sweep3D 256x256x8 on the dual-core XT4 at P = 4,096 (64 x 64 ranks):
  // each of the two allreduces swaps with 12 partners per rank, so every
  // inbox sees collective traffic from 12 sources besides its wavefront
  // neighbours. Every figure must stay bit for bit; perfbench's
  // des-paper-scale workload checks the same sim_us, events and messages.
  wb::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = 256;
  cfg.nz = 8;
  wave::obs::MetricsRegistry metrics;
  const auto res = ww::simulate_wavefront(
      wb::sweep3d(cfg), ww::sim_machine(kDual, kReg), wt::Grid(64, 64), 1,
      {.metrics = &metrics});
  EXPECT_EQ(res.events, 1204224u);
  EXPECT_EQ(res.messages, 356352u);
  EXPECT_EQ(res.makespan_us, 25176.315759998153);
  EXPECT_EQ(res.mpi_busy_us, 24715.818053269661);
  EXPECT_EQ(res.bus_wait_us, 255134.77468795178);
  EXPECT_EQ(res.nic_wait_us, 525804.26885581133);
  // Matching stays cheap at scale: no send or receive walks a long inbox.
  const std::int64_t scan = metrics.gauge("sim_max_match_scan").value();
  EXPECT_GE(scan, 1);
  EXPECT_LE(scan, 16);
}

TEST(SimulateWavefront, DeterministicAcrossRuns) {
  const wc::AppParams app = small_sweep3d();
  const auto a = ww::simulate_wavefront(
      app, ww::sim_machine(kDual, kReg), wt::Grid(4, 4), 1);
  const auto b = ww::simulate_wavefront(
      app, ww::sim_machine(kDual, kReg), wt::Grid(4, 4), 1);
  EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.events, b.events);
}

TEST(SimulateWavefront, MoreProcessorsRunFaster) {
  const wc::AppParams app = small_sweep3d();
  const auto p4 = ww::simulate_wavefront(
      app, ww::sim_machine(kSingle, kReg), wt::Grid(2, 2), 1);
  const auto p16 = ww::simulate_wavefront(
      app, ww::sim_machine(kSingle, kReg), wt::Grid(4, 4), 1);
  const auto p64 = ww::simulate_wavefront(
      app, ww::sim_machine(kSingle, kReg), wt::Grid(8, 8), 1);
  EXPECT_GT(p4.makespan_us, p16.makespan_us);
  EXPECT_GT(p16.makespan_us, p64.makespan_us);
}

TEST(SimulateWavefront, IterationsScaleLinearly) {
  const wc::AppParams app = small_sweep3d();
  const auto one = ww::simulate_wavefront(
      app, ww::sim_machine(kDual, kReg), wt::Grid(4, 4), 1);
  const auto three = ww::simulate_wavefront(
      app, ww::sim_machine(kDual, kReg), wt::Grid(4, 4), 3);
  // Steady state: iterations pipeline nothing across the iteration
  // boundary (the final sweep fully completes), so time is ~linear.
  EXPECT_NEAR(three.makespan_us, 3.0 * one.makespan_us,
              0.02 * three.makespan_us);
  EXPECT_NEAR(three.time_us, one.makespan_us, 0.02 * one.makespan_us);
}

TEST(SimulateWavefront, ContentionCountersAreTracked) {
  // Contention metrics are non-negative and deterministic; dual-core
  // packing can only add shared-resource pressure relative to one core
  // per node on the same grid.
  const wc::AppParams app = small_sweep3d();
  const auto single = ww::simulate_wavefront(
      app, ww::sim_machine(kSingle, kReg), wt::Grid(4, 4), 1);
  const auto dual = ww::simulate_wavefront(
      app, ww::sim_machine(kDual, kReg), wt::Grid(4, 4), 1);
  EXPECT_GE(single.bus_wait_us, 0.0);
  EXPECT_GE(dual.bus_wait_us + dual.nic_wait_us,
            single.bus_wait_us + single.nic_wait_us);
}

TEST(SimulateWavefront, LuRunsBothSweepsAndStencil) {
  wb::LuConfig cfg;
  cfg.n = 36;
  const wc::AppParams app = wb::lu(cfg);
  const auto res = ww::simulate_wavefront(
      app, ww::sim_machine(kSingle, kReg), wt::Grid(3, 3), 1);
  EXPECT_GT(res.makespan_us, 0.0);
  // 2 sweeps * 36 tiles * EW/NS messages + stencil halo exchanges.
  EXPECT_GT(res.messages, 0u);
}

TEST(SimulateWavefront, ChimaeraSlowerThanSweep3dStructure) {
  // With identical per-cell work and problem, Chimaera's extra full-
  // completion barriers (nfull = 4 vs 2) cannot be faster than Sweep3D's
  // more pipelined structure.
  wb::Sweep3dConfig s3;
  s3.nx = s3.ny = s3.nz = 64;
  s3.mk = 2;  // Htile = 1, same as Chimaera
  wc::AppParams sweep = wb::sweep3d(s3);
  wc::AppParams chim = sweep;
  chim.sweeps = wc::SweepStructure::chimaera();
  const auto t_sweep = ww::simulate_wavefront(
      sweep, ww::sim_machine(kSingle, kReg), wt::Grid(8, 8), 1);
  const auto t_chim = ww::simulate_wavefront(
      chim, ww::sim_machine(kSingle, kReg), wt::Grid(8, 8), 1);
  EXPECT_GE(t_chim.makespan_us, t_sweep.makespan_us - 1e-9);
}

// Emergent sweep precedence: the simulated iteration time of Sweep3D obeys
// the model's r5 decomposition direction — removing the two diagonal-
// complete dependencies (by replacing the structure with eight fully
// pipelined sweeps) speeds the simulation up by roughly the fill terms.
TEST(SimulateWavefront, FillCostEmergesFromStructure) {
  wb::Sweep3dConfig s3;
  s3.nx = s3.ny = s3.nz = 64;
  wc::AppParams normal = wb::sweep3d(s3);

  wc::AppParams pipelined = normal;
  // Eight same-direction sweeps: each chases the previous one through the
  // grid with no turn-around, the minimum-fill structure with equal work.
  // (Alternating corners would *serialize*: a sweep from the opposite
  // corner cannot start until the previous sweep reaches that corner.)
  using wc::Sweep;
  using wc::SweepOrigin;
  using wc::SweepPrecedence;
  std::vector<Sweep> sweeps(
      8, Sweep{SweepOrigin::NorthWest, SweepPrecedence::OriginFree});
  sweeps.back().precedence = SweepPrecedence::FullComplete;
  pipelined.sweeps = wc::SweepStructure(std::move(sweeps));

  const auto t_normal = ww::simulate_wavefront(
      normal, ww::sim_machine(kSingle, kReg), wt::Grid(8, 8), 1);
  const auto t_pipe = ww::simulate_wavefront(
      pipelined, ww::sim_machine(kSingle, kReg), wt::Grid(8, 8), 1);
  EXPECT_LT(t_pipe.makespan_us, t_normal.makespan_us);
}

// Parameterized sweep over grid shapes: the simulation must never deadlock
// and the makespan must exceed the serial-work lower bound per rank.
class GridShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GridShapes, RunsAndRespectsWorkLowerBound) {
  const auto [n, m] = GetParam();
  const wc::AppParams app = small_sweep3d();
  const wave::topo::Grid grid(n, m);
  const auto spec = ww::make_spec(app, grid);
  const auto res = ww::simulate_wavefront(
      app, ww::sim_machine(kDual, kReg), grid, 1);
  const double lower_bound =
      8.0 * spec.tiles_per_stack * spec.w_tile;  // one rank's compute
  EXPECT_GE(res.makespan_us, lower_bound - 1e-6)
      << "grid " << n << "x" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GridShapes,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{1, 2},
                      std::pair{2, 2}, std::pair{4, 2}, std::pair{3, 3},
                      std::pair{8, 4}, std::pair{5, 7}));

// ---- event-stream pins ------------------------------------------------------
//
// Each pin is an FNV-1a hash of the executed (time, seq) stream, captured
// through Observers::events (Engine::set_trace), and for traced runs of
// the recorded span stream too. Equal totals can hide a reordering; equal
// hashes mean every rank posted the same operations at the same simulated
// times, in the same order. They cover the collective step schedule (its
// fold for non-powers of two included), the LU halo swap and the
// nonblocking-send drain.

namespace {

struct Digest {
  std::size_t count = 0;
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis

  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;  // FNV-1a prime
    }
  }
};

Digest digest(const std::vector<wave::sim::TraceEvent>& events) {
  Digest d;
  for (const wave::sim::TraceEvent& e : events) {
    d.mix(std::bit_cast<std::uint64_t>(e.time));
    d.mix(e.seq);
  }
  d.count = events.size();
  return d;
}

Digest digest(const wave::obs::SpanCapture& capture) {
  Digest d;
  for (const wave::obs::Span& s : capture.buffer().spans()) {
    d.mix(static_cast<std::uint64_t>(s.kind));
    d.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.rank)));
    d.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.peer)));
    d.mix(std::bit_cast<std::uint64_t>(s.bytes));
    d.mix(std::bit_cast<std::uint64_t>(s.begin_us));
    d.mix(std::bit_cast<std::uint64_t>(s.end_us));
  }
  d.count = capture.buffer().spans().size();
  return d;
}

Digest storm_stream(int n, int m) {
  std::vector<wave::sim::TraceEvent> events;
  ww::WorkloadInputs in;
  in.grid = wt::Grid(n, m);
  in.observers.events = &events;
  ww::AllreduceStormWorkload().simulate(ww::sim_machine(kDual, kReg), in);
  return digest(events);
}

Digest allreduce_stream(int ranks) {
  std::vector<wave::sim::TraceEvent> events;
  ww::allreduce_sim_time(kDual.loggp, ranks, 2, 8, {.events = &events});
  return digest(events);
}

struct TracedRun {
  Digest events, spans;
};

TracedRun wavefront_stream(const wc::AppParams& app, const wt::Grid& grid) {
  std::vector<wave::sim::TraceEvent> events;
  wave::obs::SpanCapture capture;
  ww::simulate_wavefront(app, ww::sim_machine(kDual, kReg), grid, 2,
                         {.trace = &capture, .events = &events});
  EXPECT_FALSE(capture.truncated());
  return {digest(events), digest(capture)};
}

}  // namespace

TEST(EventStreamPin, AllreduceStormAtP64) {
  const Digest d = storm_stream(8, 8);
  EXPECT_EQ(d.count, 9280u);
  EXPECT_EQ(d.hash, 12620992168662183013u);
}

TEST(EventStreamPin, AllreduceStormAtP12RunsItsPowerOfTwoCore) {
  // The storm rounds its world down to a power of two: 8 ranks here.
  const Digest d = storm_stream(3, 4);
  EXPECT_EQ(d.count, 584u);
  EXPECT_EQ(d.hash, 1060982762843124325u);
}

TEST(EventStreamPin, AllreduceSimTimeFoldsNonPowerOfTwo) {
  const Digest fold = allreduce_stream(12);  // 4 excess ranks fold in
  EXPECT_EQ(fold.count, 108u);
  EXPECT_EQ(fold.hash, 36875259806428749u);
  const Digest pow2 = allreduce_stream(64);
  EXPECT_EQ(pow2.count, 1216u);
  EXPECT_EQ(pow2.hash, 10283951572290627109u);
}

TEST(EventStreamPin, LuStencilPhase) {
  const TracedRun run = wavefront_stream(wb::lu(), wt::Grid(3, 3));
  EXPECT_EQ(run.events.count, 46899u);
  EXPECT_EQ(run.events.hash, 6088902417008086650u);
  EXPECT_EQ(run.spans.count, 27252u);
  EXPECT_EQ(run.spans.hash, 18322151738652665048u);
}

TEST(EventStreamPin, NonblockingSweep3dWithFoldedAllreduces) {
  wc::AppParams app = small_sweep3d();
  app.nonblocking_sends = true;
  const TracedRun run = wavefront_stream(app, wt::Grid(4, 3));
  EXPECT_EQ(run.events.count, 54668u);
  EXPECT_EQ(run.events.hash, 16969732432566408903u);
  EXPECT_EQ(run.spans.count, 24014u);
  EXPECT_EQ(run.spans.hash, 10673407972877500901u);
}

// ---- what each side reads ---------------------------------------------------
//
// Every key write_machine_config emits, perturbed one at a time on
// fatnode-loggps (2 x 4 cores, loggps, two all-reduces per iteration, E/W
// messages below the eager limit and N/S ones above it): the simulated
// time moves exactly when sim_machine's output does, and the predicted
// time moves for every key but the model-inert ones. A key the lists
// below do not name must reach both sides, so a new key fails here until
// someone decides which side reads it.

namespace {

/// Keys neither side reads.
const std::vector<std::string> kModelInert = {"name"};

/// Keys only the model reads (ROADMAP item 3): the DES gives every node
/// one bus whatever buses_per_node says, and runs no [3]-style
/// synchronization terms.
const std::vector<std::string> kModelOnly = {"buses_per_node",
                                             "synchronization_terms"};

bool listed(const std::vector<std::string>& keys, const std::string& key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

/// A valid other value for one config key: the other backend, a flipped
/// switch, a doubled integer, a non-integer times 1.25 (doubling on.ocopy
/// would pass on.o) or a longer name.
std::string perturbed(const std::string& key, const std::string& value) {
  if (key == "comm_model") return value == "loggp" ? "loggps" : "loggp";
  if (value == "true" || value == "false")
    return value == "true" ? "false" : "true";
  double v = 0.0;
  const char* end = value.data() + value.size();
  const auto parsed = std::from_chars(value.data(), end, v);
  if (parsed.ec == std::errc() && parsed.ptr == end) {
    std::ostringstream os;
    os << std::setprecision(17) << (v == std::trunc(v) ? 2.0 : 1.25) * v;
    return os.str();
  }
  return value + "-b";
}

/// The config text with `key`'s value replaced.
std::string with_value(const std::string& config, const std::string& key,
                       const std::string& value) {
  std::istringstream in(config);
  std::string out;
  for (std::string line; std::getline(in, line);)
    out += (line.rfind(key + " = ", 0) == 0 ? key + " = " + value : line) +
           "\n";
  return out;
}

}  // namespace

TEST(SimMachine, SimTimeMovesExactlyWhenSimMachineDoes) {
  const wc::MachineConfig base = wc::load_machine_config(
      std::string(WAVE_MACHINES_DIR) + "/fatnode-loggps.cfg", kReg);
  ASSERT_EQ(base.cores_per_node(), 8);
  wb::Sweep3dConfig cfg;  // Htile = 2, 48 boundary bytes per cell
  cfg.nx = 128;
  cfg.ny = 64;
  cfg.nz = 8;
  ww::WorkloadInputs in;
  in.app = wb::sweep3d(cfg);
  in.grid = wt::Grid(8, 8);
  ASSERT_GT(in.app.nonwavefront.allreduce_count, 0);
  ASSERT_LT(in.app.message_bytes_ew(8, 8), base.loggp.eager_limit_bytes);
  ASSERT_GT(in.app.message_bytes_ns(8, 8), base.loggp.eager_limit_bytes);

  const ww::WavefrontWorkload impl;
  const ww::Workload& wavefront = impl;
  const double model_us = wavefront.predict(base, kReg, in).time_us;
  const double sim_us = wavefront.simulate(base, kReg, in).time_us;
  const ww::SimMachine sim = ww::sim_machine(base, kReg);

  const std::string config = wc::write_machine_config(base);
  std::istringstream lines(config);
  std::size_t named = 0;  // keys of the two lists seen
  for (std::string line; std::getline(lines, line);) {
    const std::size_t eq = line.find(" = ");
    ASSERT_NE(eq, std::string::npos) << line;
    const std::string key = line.substr(0, eq);
    const std::string value = perturbed(key, line.substr(eq + 3));
    const wc::MachineConfig machine = wc::parse_machine_config(
        with_value(config, key, value), "<perturbed>", kReg);
    ASSERT_NE(machine, base) << key << " = " << value;

    const bool sim_moved =
        wavefront.simulate(machine, kReg, in).time_us != sim_us;
    const bool machine_moved = ww::sim_machine(machine, kReg) != sim;
    const bool model_moved =
        wavefront.predict(machine, kReg, in).time_us != model_us;
    EXPECT_EQ(sim_moved, machine_moved) << key << " = " << value;
    named += listed(kModelInert, key) || listed(kModelOnly, key);
    if (listed(kModelInert, key)) {
      EXPECT_FALSE(model_moved) << key << " = " << value;
      EXPECT_FALSE(machine_moved) << key << " = " << value;
    } else if (listed(kModelOnly, key)) {
      EXPECT_TRUE(model_moved) << key << " = " << value;
      EXPECT_FALSE(machine_moved) << key << " = " << value;
    } else {
      EXPECT_TRUE(model_moved) << key << " = " << value;
      EXPECT_TRUE(machine_moved) << key << " = " << value;
    }
  }
  EXPECT_EQ(named, kModelInert.size() + kModelOnly.size());
}
