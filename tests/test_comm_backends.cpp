// The pluggable comm-model layer: registry lookup, the closed forms of
// the three shipped backends, their degeneration to pure LogGP, solver
// integration (no double-charged contention), the LogGPS wiring into the
// discrete-event simulator, and a pinned cross-backend regression on a
// fixed scenario.
#include <gtest/gtest.h>

#include <memory>

#include "common/contracts.h"
#include "core/benchmarks.h"
#include "core/machine.h"
#include "core/solver.h"
#include "loggp/backends.h"
#include "loggp/contention.h"
#include "loggp/registry.h"
#include "workloads/builtin.h"

namespace wc = wave::core;
namespace wl = wave::loggp;
namespace wt = wave::topo;
namespace ww = wave::workloads;

using wl::Placement;

namespace {
const wl::MachineParams kXt4 = wl::xt4();
constexpr int kSmall = 512;   // below the 1024-byte eager limit
constexpr int kLarge = 4096;  // rendezvous / DMA path
// Read-only lookups share one registry; tests that mutate construct their
// own, so registration side effects never leak across tests.
const wl::CommModelRegistry kReg;
}  // namespace

TEST(CommModelRegistry, ListsTheThreeShippedBackends) {
  const auto names = kReg.names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_EQ(names[0], "loggp");
  EXPECT_EQ(names[1], "loggps");
  EXPECT_EQ(names[2], "contention");
  for (const auto& info : kReg.list())
    EXPECT_FALSE(info.description.empty()) << info.name;
}

TEST(CommModelRegistry, MakesBackendsByName) {
  for (const char* name : {"loggp", "loggps", "contention"}) {
    const auto model = kReg.make(name, kXt4);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
    EXPECT_EQ(model->params().off.o, kXt4.off.o);
  }
}

TEST(CommModelRegistry, UnknownNameThrowsListingAlternatives) {
  try {
    kReg.make("telepathy", kXt4);
    FAIL() << "expected contract_error";
  } catch (const wave::common::contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("telepathy"), std::string::npos) << what;
    EXPECT_NE(what.find("loggp"), std::string::npos) << what;
  }
}

TEST(CommModelRegistry, DuplicateRegistrationThrows) {
  wl::CommModelRegistry registry;
  EXPECT_THROW(registry.add(
                   "loggp", "dup",
                   [](const wl::MachineParams& p, const wl::CommModelOptions&) {
                     return std::make_unique<wl::LogGpModel>(p);
                   }),
               wave::common::contract_error);
}

TEST(CommModelRegistry, CustomBackendsPlugIn) {
  // A study can register its own backend and select it everywhere by name
  // (also through MachineConfig::comm_model).
  wl::CommModelRegistry registry;
  registry.add(
      "test-double-latency", "LogGP with doubled wire latency",
      [](const wl::MachineParams& p, const wl::CommModelOptions&) {
        wl::MachineParams twice = p;
        twice.off.L *= 2.0;
        return std::make_unique<wl::LogGpModel>(twice);
      });
  const auto model = registry.make("test-double-latency", kXt4);
  const wl::LogGpModel reference(kXt4);
  EXPECT_DOUBLE_EQ(model->total(kSmall, Placement::OffNode),
                   reference.total(kSmall, Placement::OffNode) + kXt4.off.L);

  // ...and is selectable through MachineConfig::comm_model like the
  // shipped backends (name() still reports the implementing class).
  wc::MachineConfig machine = wc::MachineConfig::xt4_dual_core();
  machine.comm_model = "test-double-latency";
  EXPECT_DOUBLE_EQ(
      machine.make_comm_model(registry)->total(kSmall, Placement::OffNode),
      reference.total(kSmall, Placement::OffNode) + kXt4.off.L);
}

TEST(LogGpsBackend, DegeneratesToLogGpWhenSyncIsZero) {
  ASSERT_DOUBLE_EQ(kXt4.off.sync, 0.0);
  const wl::LogGpModel loggp(kXt4);
  const wl::LogGpsModel loggps(kXt4);
  for (int bytes : {0, 1, kSmall, 1024, 1025, kLarge}) {
    for (Placement where : {Placement::OffNode, Placement::OnChip}) {
      EXPECT_DOUBLE_EQ(loggps.total(bytes, where), loggp.total(bytes, where));
      EXPECT_DOUBLE_EQ(loggps.send(bytes, where), loggp.send(bytes, where));
      EXPECT_DOUBLE_EQ(loggps.recv(bytes, where), loggp.recv(bytes, where));
    }
  }
  EXPECT_DOUBLE_EQ(loggps.rendezvous_sync(), 0.0);
}

TEST(LogGpsBackend, ChargesSyncOnLargeOffNodeMessagesOnly) {
  wl::MachineParams params = kXt4;
  params.off.sync = 2.5;
  const wl::LogGpModel loggp(params);
  const wl::LogGpsModel loggps(params);
  EXPECT_DOUBLE_EQ(loggps.rendezvous_sync(), 2.5);

  // Large off-node: total and sender occupancy each gain exactly s.
  EXPECT_DOUBLE_EQ(loggps.total(kLarge, Placement::OffNode),
                   loggp.total(kLarge, Placement::OffNode) + 2.5);
  EXPECT_DOUBLE_EQ(loggps.send(kLarge, Placement::OffNode),
                   loggp.send(kLarge, Placement::OffNode) + 2.5);
  EXPECT_DOUBLE_EQ(loggps.recv(kLarge, Placement::OffNode),
                   loggp.recv(kLarge, Placement::OffNode));

  // Eager off-node and both on-chip paths are untouched.
  EXPECT_DOUBLE_EQ(loggps.total(kSmall, Placement::OffNode),
                   loggp.total(kSmall, Placement::OffNode));
  EXPECT_DOUBLE_EQ(loggps.send(kSmall, Placement::OffNode),
                   loggp.send(kSmall, Placement::OffNode));
  EXPECT_DOUBLE_EQ(loggps.total(kLarge, Placement::OnChip),
                   loggp.total(kLarge, Placement::OnChip));
  EXPECT_DOUBLE_EQ(loggps.total(kSmall, Placement::OnChip),
                   loggp.total(kSmall, Placement::OnChip));
}

TEST(BusContentionBackend, SharersOneDegeneratesToLogGp) {
  const wl::LogGpModel loggp(kXt4);
  const wl::BusContentionModel cont(kXt4, 1);
  EXPECT_TRUE(cont.models_bus_contention());
  for (int bytes : {kSmall, kLarge}) {
    for (Placement where : {Placement::OffNode, Placement::OnChip}) {
      EXPECT_DOUBLE_EQ(cont.total(bytes, where), loggp.total(bytes, where));
      EXPECT_DOUBLE_EQ(cont.send(bytes, where), loggp.send(bytes, where));
      EXPECT_DOUBLE_EQ(cont.recv(bytes, where), loggp.recv(bytes, where));
    }
  }
}

TEST(BusContentionBackend, AddsInterferenceUnitsPerBusWindow) {
  const int sharers = 4;
  const wl::LogGpModel loggp(kXt4);
  const wl::BusContentionModel cont(kXt4, sharers);
  const double i_small = wl::interference_unit(kXt4, kSmall);
  const double i_large = wl::interference_unit(kXt4, kLarge);
  const double wait_small = (sharers - 1) * i_small;
  const double wait_large = (sharers - 1) * i_large;

  // Off-node: TX and RX windows on the end-to-end path.
  EXPECT_DOUBLE_EQ(cont.total(kSmall, Placement::OffNode),
                   loggp.total(kSmall, Placement::OffNode) + 2.0 * wait_small);
  EXPECT_DOUBLE_EQ(cont.total(kLarge, Placement::OffNode),
                   loggp.total(kLarge, Placement::OffNode) + 2.0 * wait_large);
  // Receives: the local RX window for eager, both windows for rendezvous.
  EXPECT_DOUBLE_EQ(cont.recv(kSmall, Placement::OffNode),
                   loggp.recv(kSmall, Placement::OffNode) + wait_small);
  EXPECT_DOUBLE_EQ(cont.recv(kLarge, Placement::OffNode),
                   loggp.recv(kLarge, Placement::OffNode) + 2.0 * wait_large);
  // Sender occupancy unchanged (MPI_Send returns before the data DMA).
  EXPECT_DOUBLE_EQ(cont.send(kSmall, Placement::OffNode),
                   loggp.send(kSmall, Placement::OffNode));
  EXPECT_DOUBLE_EQ(cont.send(kLarge, Placement::OffNode),
                   loggp.send(kLarge, Placement::OffNode));
  // On-chip: only the large-message DMA crosses the shared bus.
  EXPECT_DOUBLE_EQ(cont.total(kSmall, Placement::OnChip),
                   loggp.total(kSmall, Placement::OnChip));
  EXPECT_DOUBLE_EQ(cont.total(kLarge, Placement::OnChip),
                   loggp.total(kLarge, Placement::OnChip) + wait_large);
  EXPECT_DOUBLE_EQ(cont.recv(kLarge, Placement::OnChip),
                   loggp.recv(kLarge, Placement::OnChip) + wait_large);
}

TEST(SolverBackendIntegration, ContentionBackendSuppressesTable6Terms) {
  // On a single-core-per-node machine the contention backend has no
  // sharers, and with Table 6's terms suppressed the prediction must be
  // *identical* to LogGP — any difference would mean double counting.
  wc::MachineConfig loggp_machine = wc::MachineConfig::xt4_single_core();
  wc::MachineConfig cont_machine = loggp_machine;
  cont_machine.comm_model = "contention";
  const auto app = wc::benchmarks::chimaera();
  const auto a = wc::Solver(app, loggp_machine, kReg).evaluate(256);
  const auto b = wc::Solver(app, cont_machine, kReg).evaluate(256);
  EXPECT_DOUBLE_EQ(a.iteration.total, b.iteration.total);
  EXPECT_DOUBLE_EQ(a.iteration.comm, b.iteration.comm);
}

TEST(SolverBackendIntegration, ContentionSlowsSharedBusMachines) {
  wc::MachineConfig loggp_machine = wc::MachineConfig::xt4_with_cores(4);
  wc::MachineConfig cont_machine = loggp_machine;
  cont_machine.comm_model = "contention";
  const auto app = wc::benchmarks::chimaera();
  const auto a = wc::Solver(app, loggp_machine, kReg).evaluate(256);
  const auto b = wc::Solver(app, cont_machine, kReg).evaluate(256);
  EXPECT_GT(b.iteration.total, a.iteration.total);
  // ...but one bus per core restores the uncontended prediction shape:
  // fewer sharers, less interference.
  wc::MachineConfig buses = cont_machine;
  buses.buses_per_node = 4;
  const auto c = wc::Solver(app, buses, kReg).evaluate(256);
  EXPECT_LT(c.iteration.total, b.iteration.total);
}

TEST(SimBackendIntegration, LogGpsSyncSlowsRendezvousHeavySimulation) {
  // Sweep3D 64^3 on 16 ranks: EW boundary messages are 1536 B, above the
  // eager limit, so the simulated rendezvous path pays the sync cost and
  // the LogGPS machine must simulate strictly slower.
  wc::benchmarks::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 64;
  const auto app = wc::benchmarks::sweep3d(cfg);

  wc::MachineConfig machine = wc::MachineConfig::xt4_dual_core();
  machine.loggp.off.sync = 10.0;
  ASSERT_GT(app.message_bytes_ew(4, 4), machine.loggp.eager_limit_bytes);

  wc::MachineConfig loggps_machine = machine;
  loggps_machine.comm_model = "loggps";
  const auto plain = ww::simulate_wavefront(
      app, ww::sim_machine(machine, kReg), wt::Grid(4, 4), 1);
  const auto synced = ww::simulate_wavefront(
      app, ww::sim_machine(loggps_machine, kReg), wt::Grid(4, 4), 1);
  EXPECT_GT(synced.time_us, plain.time_us);

  // The "loggp" backend ignores off.sync entirely: same machine, sync
  // stripped, identical simulation.
  wc::MachineConfig no_sync = machine;
  no_sync.loggp.off.sync = 0.0;
  const auto baseline = ww::simulate_wavefront(
      app, ww::sim_machine(no_sync, kReg), wt::Grid(4, 4), 1);
  EXPECT_DOUBLE_EQ(plain.time_us, baseline.time_us);
}

TEST(CrossBackendRegression, PinnedPredictionsOnFixedScenario) {
  // The fixed scenario of bench/model_compare: Sweep3D 256^3 at P = 256.
  // Golden values pin each backend's prediction (µs per iteration) so a
  // silent change in any backend's closed forms fails here first.
  wc::benchmarks::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 256;
  const auto app = wc::benchmarks::sweep3d(cfg);

  auto iter_ms = [&](wc::MachineConfig machine, const char* backend) {
    machine.comm_model = backend;
    return wc::Solver(app, machine, kReg).evaluate(256).iteration.total / 1.0e3;
  };

  const auto xt4 = wc::MachineConfig::xt4_dual_core();
  const auto sp2 = wc::MachineConfig::sp2_single_core();
  auto quad = wc::MachineConfig::xt4_with_cores(4);

  const double tol = 1.0e-3;  // 0.1% relative
  EXPECT_NEAR(iter_ms(xt4, "loggp"), 347.236, 347.236 * tol);
  EXPECT_NEAR(iter_ms(xt4, "loggps"), 347.236, 347.236 * tol);
  EXPECT_NEAR(iter_ms(xt4, "contention"), 351.693, 351.693 * tol);
  EXPECT_NEAR(iter_ms(sp2, "loggp"), 898.991, 898.991 * tol);
  EXPECT_NEAR(iter_ms(sp2, "loggps"), 931.961, 931.961 * tol);
  EXPECT_NEAR(iter_ms(sp2, "contention"), 898.991, 898.991 * tol);
  EXPECT_NEAR(iter_ms(quad, "loggp"), 351.257, 351.257 * tol);
  EXPECT_NEAR(iter_ms(quad, "loggps"), 351.257, 351.257 * tol);
  EXPECT_NEAR(iter_ms(quad, "contention"), 368.709, 368.709 * tol);
}
