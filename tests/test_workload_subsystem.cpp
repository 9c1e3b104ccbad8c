// Tests for the pluggable workload subsystem: registry semantics, each
// workload's paired model+sim contract, the degenerate-case pinning of
// pipeline1d, and the cross-workload matrix determinism gate.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/contracts.h"
#include "core/solver.h"
#include "runner/reference_grids.h"
#include "runner/runner.h"
#include "loggp/registry.h"
#include "wave/context.h"
#include "workloads/builtin.h"
#include "workloads/pipeline1d.h"
#include "workloads/registry.h"

namespace wc = wave::core;
namespace wl = wave::loggp;
namespace wr = wave::runner;
namespace ww = wave::workloads;

namespace {

const wc::MachineConfig kSingle = wc::MachineConfig::xt4_single_core();
const wc::MachineConfig kDual = wc::MachineConfig::xt4_dual_core();

// Shared read-only registries / context: tests that register their own
// entries construct local registries instead of mutating these.
const ww::WorkloadRegistry kWorkloads;
const wl::CommModelRegistry kComm;
const wave::Context kCtx;

ww::WorkloadInputs inputs_for(int processors, int iterations = 1) {
  ww::WorkloadInputs in;
  in.grid = wave::topo::closest_to_square(processors);
  in.iterations = iterations;
  return in;
}

}  // namespace

// ---- registry semantics -----------------------------------------------

TEST(WorkloadRegistry, ServesTheSixBuiltins) {
  const auto list = kWorkloads.list();
  ASSERT_GE(list.size(), 6u);
  // The two migrated workloads lead, the four new ones follow.
  EXPECT_EQ(list[0].name, "wavefront");
  EXPECT_EQ(list[1].name, "pingpong");
  EXPECT_EQ(list[2].name, "halo2d");
  EXPECT_EQ(list[3].name, "pipeline1d");
  EXPECT_EQ(list[4].name, "sweep3d-hybrid");
  EXPECT_EQ(list[5].name, "allreduce-storm");
  for (const auto& info : list) {
    EXPECT_FALSE(info.description.empty()) << info.name;
    EXPECT_TRUE(kWorkloads.contains(info.name));
  }
}

TEST(WorkloadRegistry, EveryEntryHasBothPaths) {
  // The subsystem's core contract: each registered workload answers both
  // the analytic and the DES path on the same small inputs.
  for (const std::string& name : kWorkloads.names()) {
    const auto workload = ww::get_workload(kWorkloads, name);
    const ww::WorkloadInputs in = inputs_for(4);
    const ww::ModelOutput model = workload->predict(kSingle, kComm, in);
    const ww::SimOutput sim = workload->simulate(kSingle, kComm, in);
    EXPECT_GT(model.time_us, 0.0) << name;
    EXPECT_GT(sim.time_us, 0.0) << name;
    EXPECT_GT(sim.events, 0u) << name;
    EXPECT_GT(workload->tolerance(), 0.0) << name;
  }
}

TEST(WorkloadRegistry, UnknownNameThrowsListingAlternatives) {
  try {
    ww::get_workload(kWorkloads, "no-such-workload");
    FAIL() << "expected contract_error";
  } catch (const wave::common::contract_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-workload"), std::string::npos);
    EXPECT_NE(msg.find("wavefront"), std::string::npos);
    EXPECT_NE(msg.find("allreduce-storm"), std::string::npos);
  }
  EXPECT_THROW(kWorkloads.require("nope"), wave::common::contract_error);
  EXPECT_FALSE(kWorkloads.contains(""));
}

TEST(WorkloadRegistry, DuplicateAndInvalidNamesAreRejected) {
  // A fresh registry already holds the built-ins, so re-adding one is a
  // duplicate.
  ww::WorkloadRegistry registry;
  auto dup = std::make_shared<ww::WavefrontWorkload>();
  EXPECT_THROW(registry.add(dup), wave::common::contract_error);
  EXPECT_THROW(registry.add(nullptr), wave::common::contract_error);
}

TEST(WorkloadRegistry, AddAndLookUpACustomWorkload) {
  // Studies register their own workloads; the registry serves them by
  // name exactly like the built-ins. Registered once per process: the
  // class is local so no other test can collide with it.
  class TinyWorkload : public ww::Workload {
   public:
    const std::string& name() const override {
      static const std::string n = "tiny-test-workload";
      return n;
    }
    const std::string& description() const override {
      static const std::string d = "registration test stub";
      return d;
    }
    double tolerance() const override { return 1.0; }
    ww::ModelOutput predict(const wc::MachineConfig&, const wl::CommModel&,
                            const ww::WorkloadInputs&) const override {
      return {1.0, 0.0, {}};
    }
    ww::SimOutput simulate(const ww::SimMachine&,
                           const ww::WorkloadInputs&) const override {
      ww::SimOutput out;
      out.time_us = 1.0;
      return out;
    }
  };
  ww::WorkloadRegistry registry;
  registry.add(std::make_shared<TinyWorkload>());
  EXPECT_EQ(ww::get_workload(registry, "tiny-test-workload")->tolerance(),
            1.0);
  const ww::ValidationReport report =
      ww::get_workload(registry, "tiny-test-workload")
          ->validate(kSingle, kComm, inputs_for(1));
  EXPECT_TRUE(report.ok);
  EXPECT_DOUBLE_EQ(report.rel_error, 0.0);
}

// ---- model-vs-sim contracts -------------------------------------------

// Each workload's validate() must hold its declared tolerance on the
// machines whose assumptions the fabric reproduces (loggp / loggps).
class WorkloadContract : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadContract, HoldsOnXt4SingleUnderLogGp) {
  const auto workload = ww::get_workload(kWorkloads, GetParam());
  const ww::ValidationReport report =
      workload->validate(kSingle, kComm, inputs_for(16));
  EXPECT_TRUE(report.ok)
      << GetParam() << ": rel_error " << report.rel_error << " > tolerance "
      << report.tolerance << " (model " << report.model.time_us << " us, sim "
      << report.sim.time_us << " us)";
}

TEST_P(WorkloadContract, HoldsOnXt4DualUnderLogGps) {
  wc::MachineConfig machine = kDual;
  machine.comm_model = "loggps";
  machine.loggp.off.sync = 2.5;  // a visible rendezvous synchronization cost
  const auto workload = ww::get_workload(kWorkloads, GetParam());
  const ww::ValidationReport report =
      workload->validate(machine, kComm, inputs_for(16));
  EXPECT_TRUE(report.ok)
      << GetParam() << ": rel_error " << report.rel_error << " > tolerance "
      << report.tolerance << " (model " << report.model.time_us << " us, sim "
      << report.sim.time_us << " us)";
}

INSTANTIATE_TEST_SUITE_P(AllBuiltins, WorkloadContract,
                         ::testing::Values("wavefront", "pingpong", "halo2d",
                                           "pipeline1d", "sweep3d-hybrid",
                                           "allreduce-storm"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(WorkloadContract, PingpongIsExactUnderLogGp) {
  // The calibration workload's model *is* the Table-1 closed form the
  // fabric implements: agreement is exact, not approximate, for both the
  // eager and the rendezvous protocol.
  const auto pingpong = ww::get_workload(kWorkloads, "pingpong");
  for (const int bytes : {64, 1024, 8192}) {
    ww::WorkloadInputs in = inputs_for(2);
    in.params["bytes"] = bytes;
    const ww::ValidationReport report = pingpong->validate(kSingle, kComm, in);
    EXPECT_NEAR(report.model.time_us, report.sim.time_us, 1e-9)
        << bytes << " bytes";
  }
}

TEST(WorkloadContract, DeterministicAcrossRuns) {
  for (const std::string& name : kWorkloads.names()) {
    const auto workload = ww::get_workload(kWorkloads, name);
    const ww::SimOutput a = workload->simulate(kDual, kComm, inputs_for(8));
    const ww::SimOutput b = workload->simulate(kDual, kComm, inputs_for(8));
    EXPECT_DOUBLE_EQ(a.time_us, b.time_us) << name;
    EXPECT_EQ(a.events, b.events) << name;
  }
}

// ---- degenerate-case pinning ------------------------------------------

TEST(Pipeline1d, StackTermEqualsWavefrontClosedFormExactly) {
  // On the 1×P chain the pipeline model's stack term must reproduce the
  // wavefront solver's Tstack closed form (r4, no E/W direction) to the
  // last bit: Tstack = (Receive + Send + W) * tiles.
  const ww::WorkloadInputs in = inputs_for(8);
  const auto workload = ww::get_workload(kWorkloads, "pipeline1d");
  const ww::ModelOutput out = workload->predict(kSingle, kComm, in);

  const wc::AppParams app = ww::Pipeline1dWorkload::chain_app(in);
  const wave::topo::Grid chain = ww::Pipeline1dWorkload::chain_grid(in);
  ASSERT_EQ(chain.n(), 1);
  ASSERT_EQ(chain.m(), in.grid.size());
  const auto comm = kSingle.make_comm_model(kComm);
  const int bytes = app.message_bytes_ns(chain.n(), chain.m());
  const double w = app.wg * app.htile * (app.nx / chain.n()) *
                   (app.ny / chain.m());
  const double per_tile = comm->recv(bytes, wl::Placement::OffNode) +
                          comm->send(bytes, wl::Placement::OffNode) + w;
  const double tiles = app.tiles_per_stack();

  double stack = 0.0;
  for (const auto& [name, value] : out.extra)
    if (name == "model_stack_us") stack = value;
  EXPECT_DOUBLE_EQ(stack, per_tile * tiles);

  // And the solver evaluated directly on the chain agrees with the
  // workload wholesale (the workload *is* the degenerate wavefront).
  const wc::Solver solver(app, kSingle, kComm);
  EXPECT_DOUBLE_EQ(out.time_us, solver.evaluate(chain).iteration.total);
  EXPECT_DOUBLE_EQ(stack, solver.evaluate(chain).t_stack.total);
}

TEST(Pipeline1d, SingleRankIsPureCompute) {
  const auto workload = ww::get_workload(kWorkloads, "pipeline1d");
  const ww::WorkloadInputs in = inputs_for(1);
  const ww::ValidationReport report = workload->validate(kSingle, kComm, in);
  // One rank, one sweep: no messages at all; model and sim are both
  // exactly tiles * W.
  EXPECT_EQ(report.sim.messages, 0u);
  EXPECT_NEAR(report.model.time_us, report.sim.time_us, 1e-6);
}

TEST(Halo2d, SingleRankIsPureCompute) {
  const auto workload = ww::get_workload(kWorkloads, "halo2d");
  const ww::WorkloadInputs in = inputs_for(1);
  const ww::ValidationReport report = workload->validate(kSingle, kComm, in);
  EXPECT_EQ(report.sim.messages, 0u);
  const double cells = in.app.nx * in.app.ny * in.app.nz;
  EXPECT_NEAR(report.model.time_us, in.app.wg * cells, 1e-6);
  EXPECT_NEAR(report.sim.time_us, in.app.wg * cells, 1e-6);
}

TEST(AllreduceStorm, ModelScalesLinearlyInCount) {
  const auto workload = ww::get_workload(kWorkloads, "allreduce-storm");
  ww::WorkloadInputs in4 = inputs_for(16);
  in4.params["count"] = 4;
  ww::WorkloadInputs in8 = inputs_for(16);
  in8.params["count"] = 8;
  const double t4 = workload->predict(kDual, kComm, in4).time_us;
  const double t8 = workload->predict(kDual, kComm, in8).time_us;
  EXPECT_DOUBLE_EQ(t8, 2.0 * t4);
}

TEST(Sweep3dHybrid, MorePlanesKeepPipelineBusy) {
  // Angle-block pipelining is what keeps the z decomposition from
  // serializing: with blocks the same problem on 2 planes must not cost
  // twice the 1-plane time (which pure z serialization would).
  const auto workload = ww::get_workload(kWorkloads, "sweep3d-hybrid");
  ww::WorkloadInputs flat = inputs_for(16);
  flat.params["pz"] = 1;
  flat.params["angle_blocks"] = 4;
  ww::WorkloadInputs deep = inputs_for(16);
  deep.params["pz"] = 2;
  deep.params["angle_blocks"] = 4;
  const ww::SimOutput t_flat = workload->simulate(kSingle, kComm, flat);
  const ww::SimOutput t_deep = workload->simulate(kSingle, kComm, deep);
  // 2 planes halve each rank's work; the deep run must realize a real
  // speedup (not serialize), though less than perfect due to fill.
  EXPECT_LT(t_deep.time_us, t_flat.time_us);
  EXPECT_GT(t_deep.time_us, 0.5 * t_flat.time_us);
}

// ---- integer parameters -------------------------------------------------

// Integer knobs reach the workloads from outside the program (Query::param,
// wave-serve's params object). A value that is not an int — fractional,
// beyond the int range, NaN — is rejected with the key named instead of
// being truncated into a different point than the one asked for.
TEST(WorkloadParams, IntegerKeysRejectNonIntegralValues) {
  const struct {
    const char* workload;
    const char* key;
  } kIntegerKeys[] = {{"sweep3d-hybrid", "pz"}, {"sweep3d-hybrid", "angle_blocks"},
                      {"halo2d", "phases"},     {"pingpong", "bytes"},
                      {"pingpong", "reps"},     {"allreduce-storm", "count"},
                      {"allreduce-storm", "bytes"}};
  for (const auto& [workload, key] : kIntegerKeys) {
    for (double bad : {2.5, 1e12, std::nan("")}) {
      for (wave::Engine engine :
           {wave::Engine::Model, wave::Engine::Simulation}) {
        const auto r = kCtx.query()
                           .workload(workload)
                           .processors(16)
                           .engine(engine)
                           .param(key, bad)
                           .run();
        ASSERT_FALSE(r.ok()) << workload << " " << key << "=" << bad;
        EXPECT_EQ(r.status().code(), wave::StatusCode::kInvalidArgument);
        EXPECT_NE(r.status().message().find("'" + std::string(key) + "'"),
                  std::string::npos)
            << r.status().message();
      }
    }
    const auto integral =
        kCtx.query().workload(workload).processors(16).param(key, 2.0).run();
    EXPECT_TRUE(integral.ok()) << workload << " " << key << ": "
                               << integral.status().to_string();
  }
}

// ---- runner integration -----------------------------------------------

TEST(WorkloadAxis, SweepsRegisteredNamesAndRejectsUnknown) {
  wr::SweepGrid grid;
  grid.workloads(kCtx, {"pingpong", "halo2d"});
  const auto points = grid.points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].workload, "pingpong");
  ASSERT_EQ(points[0].labels.size(), 1u);
  EXPECT_EQ(points[0].labels[0].first, "workload");
  EXPECT_EQ(points[0].labels[0].second, "pingpong");
  EXPECT_EQ(points[1].workload, "halo2d");

  wr::SweepGrid bad;
  EXPECT_THROW(bad.workloads(kCtx, {"no-such"}), wave::common::contract_error);
}

TEST(WorkloadAxis, EvaluateScenarioRoutesThroughRegistry) {
  wr::Scenario s;
  s.workload = "pingpong";
  s.engine = wr::Engine::Model;
  s.set_processors(2);
  const wr::Metrics model = wr::evaluate_scenario(kCtx, s);
  ASSERT_FALSE(model.empty());
  EXPECT_EQ(model.front().first, "model_us");

  s.engine = wr::Engine::Simulation;
  const wr::Metrics sim = wr::evaluate_scenario(kCtx, s);
  EXPECT_EQ(sim.front().first, "sim_us");

  // The default workload keeps the original wavefront metric names (the
  // pinned-record fixtures depend on them).
  wr::Scenario wf;
  wf.app = ww::WorkloadInputs::default_app();
  wf.engine = wr::Engine::Model;
  wf.set_processors(4);
  EXPECT_EQ(wr::evaluate_scenario(kCtx, wf).front().first, "model_iter_us");
}

TEST(WorkloadAxis, ApplyWorkloadCliSetsTheBase) {
  const char* argv[] = {"prog", "--workload=halo2d"};
  const wave::common::Cli cli(2, argv);
  wr::Scenario base;
  wr::apply_workload_cli(cli, kCtx, base);
  EXPECT_EQ(base.workload, "halo2d");

  const char* none[] = {"prog"};
  wr::Scenario untouched;
  wr::apply_workload_cli(wave::common::Cli(1, none), kCtx, untouched);
  EXPECT_EQ(untouched.workload, "wavefront");
}

TEST(WorkloadAxis, ModelVsSimMetricsReportTolerance) {
  wr::Scenario s;
  s.workload = "pingpong";
  s.set_processors(2);
  const wr::Metrics m = wr::workload_model_vs_sim_metrics(kCtx, s);
  double within = -1.0, err = -1.0;
  for (const auto& [name, value] : m) {
    if (name == "within_tol") within = value;
    if (name == "err_pct") err = value;
  }
  EXPECT_EQ(within, 1.0);
  EXPECT_NEAR(err, 0.0, 1e-6);
}

TEST(WorkloadMatrix, RecordsByteIdenticalAcrossThreadCounts) {
  const wr::SweepGrid grid = wr::workload_matrix_grid(kCtx, false);
  const auto points = grid.points();
  ASSERT_GE(points.size(), 100u);
  const auto serial =
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(1))
          .run(points, [](const wr::Scenario& s) {
            return wr::workload_metrics(kCtx, s);
          });
  const auto parallel =
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(4))
          .run(points, [](const wr::Scenario& s) {
            return wr::workload_metrics(kCtx, s);
          });
  EXPECT_EQ(wr::to_csv(serial), wr::to_csv(parallel));
}
