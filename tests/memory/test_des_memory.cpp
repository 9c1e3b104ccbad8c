// The DES memory gate: live heap bytes per rank of one paper-scale
// simulate_wavefront, counted by this binary's global operator new/delete
// (counting_new.h). Byte counts are deterministic: they depend on neither
// timing nor the optimisation level nor sanitizers (GCC lays out coroutine
// frames before optimising), so unlike the timing.* gates this one runs in
// every build.
#include <gtest/gtest.h>

#include <cstdio>

#include "counting_new.h"
#include "core/benchmarks.h"
#include "loggp/registry.h"
#include "workloads/builtin.h"
#include "workloads/wavefront.h"

namespace {

namespace wb = wave::core::benchmarks;
namespace ww = wave::workloads;
using wave::testing::g_live;
using wave::testing::g_peak;

// The paper-scale point of SimulateWavefront.PaperScaleRecordAtP4096IsPinned
// (Sweep3D 256x256x8 on the dual-core XT4, 64 x 64 ranks). Per rank it
// holds a coroutine frame, its share of the task slab and the message and
// posted-receive pools, the pending-event buckets and the per-rank fabric
// state (docs/PERFORMANCE.md, "DES memory per rank").
constexpr double kMaxBytesPerRank = 745.0;

TEST(DesMemory, PaperScaleWavefrontPeakBytesPerRank) {
  wb::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = 256;
  cfg.nz = 8;
  const wave::core::AppParams app = wb::sweep3d(cfg);
  const wave::core::MachineConfig dual =
      wave::core::MachineConfig::xt4_dual_core();
  const wave::loggp::CommModelRegistry registry;
  const ww::SimMachine machine = ww::sim_machine(dual, registry);
  const wave::topo::Grid grid(64, 64);

  const std::size_t before = g_live.load();
  g_peak.store(before);
  const ww::SimOutput res = ww::simulate_wavefront(app, machine, grid, 1);
  const double per_rank =
      static_cast<double>(g_peak.load() - before) / grid.size();

  ASSERT_EQ(res.events, 1204224u);  // the pinned run, not some other one
  std::printf("peak live heap: %.1f bytes per rank (gate %.0f)\n", per_rank,
              kMaxBytesPerRank);
  EXPECT_LE(per_rank, kMaxBytesPerRank);
}

}  // namespace
