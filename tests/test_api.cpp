// The stable `wave::` facade: Context scoping, the fluent Query builder,
// the Study round-trip against the pre-facade runner, and the error
// contract at the API boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api_internal.h"
#include "common/contracts.h"
#include "core/machine.h"
#include "core/solver.h"
#include "loggp/backends.h"
#include "loggp/registry.h"
#include "runner/runner.h"
#include "wave/wave.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace ww = wave::workloads;

namespace {

/// A minimal registrable workload: constant model and sim answers.
class StubWorkload : public ww::Workload {
 public:
  explicit StubWorkload(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  const std::string& description() const override {
    static const std::string d = "constant-answer context-isolation stub";
    return d;
  }
  double tolerance() const override { return 1.0; }
  ww::ModelOutput predict(const wave::core::MachineConfig&,
                          const wave::loggp::CommModel&,
                          const ww::WorkloadInputs&) const override {
    return {42.0, 21.0, {{"model_stub_term", 7.0}}};
  }
  ww::SimOutput simulate(const ww::SimMachine&,
                         const ww::WorkloadInputs&) const override {
    ww::SimOutput out;
    out.time_us = 42.0;
    return out;
  }

 private:
  std::string name_;
};

}  // namespace

// ---- Context scoping ---------------------------------------------------

TEST(ApiContext, BuiltinsArePreRegistered) {
  const wave::Context ctx;
  EXPECT_TRUE(ctx.has_workload("wavefront"));
  EXPECT_TRUE(ctx.has_workload("sweep3d-hybrid"));
  EXPECT_TRUE(ctx.has_comm_model("loggp"));
  EXPECT_TRUE(ctx.has_comm_model("loggps"));
  EXPECT_TRUE(ctx.has_comm_model("contention"));
  EXPECT_TRUE(ctx.has_machine("xt4-dual"));
  EXPECT_TRUE(ctx.has_machine("xt4-single"));
  EXPECT_TRUE(ctx.has_machine("sp2"));
  EXPECT_EQ(ctx.workloads().size(), 6u);
  EXPECT_EQ(ctx.comm_models().size(), 3u);
}

TEST(ApiContext, TwoContextsDoNotShareRegistrations) {
  wave::Context a;
  wave::Context b;
  ASSERT_TRUE(
      a.register_workload(std::make_shared<StubWorkload>("only-in-a"))
          .is_ok());
  EXPECT_TRUE(a.has_workload("only-in-a"));
  EXPECT_FALSE(b.has_workload("only-in-a"));
  // Registration is context-local: a fresh registry does not see it either.
  EXPECT_FALSE(ww::WorkloadRegistry().contains("only-in-a"));
  // And b can reuse the name for a different workload without conflict.
  EXPECT_TRUE(
      b.register_workload(std::make_shared<StubWorkload>("only-in-a"))
          .is_ok());
}

TEST(ApiContext, DuplicateRegistrationIsAStatusNotAnException) {
  wave::Context ctx;
  const wave::Status dup =
      ctx.register_workload(std::make_shared<StubWorkload>("wavefront"));
  EXPECT_FALSE(dup.is_ok());
  EXPECT_EQ(dup.code(), wave::StatusCode::kAlreadyExists);
  EXPECT_NE(dup.message().find("wavefront"), std::string::npos);

  // Only a taken name is kAlreadyExists; a null workload or a name that
  // breaks the registry's name rule is a bad value.
  EXPECT_EQ(ctx.register_workload(nullptr).code(),
            wave::StatusCode::kInvalidArgument);
  EXPECT_EQ(ctx.register_workload(std::make_shared<StubWorkload>("a b")).code(),
            wave::StatusCode::kInvalidArgument);
  EXPECT_FALSE(ctx.has_workload("a b"));
}

TEST(ApiContext, ScopedCommModelIsEvaluatable) {
  // A custom backend registered in one context drives both engines there
  // and stays invisible to a sibling context.
  wave::Context a;
  wave::Context b;
  a.comm_model_registry().add(
      "test-loggp-clone", "LogGP clone registered in context a",
      [](const wave::loggp::MachineParams& p,
         const wave::loggp::CommModelOptions&) {
        return std::make_unique<wave::loggp::LogGpModel>(p);
      });
  EXPECT_TRUE(a.has_comm_model("test-loggp-clone"));
  EXPECT_FALSE(b.has_comm_model("test-loggp-clone"));

  const auto with = a.query()
                        .comm_model("test-loggp-clone")
                        .processors(64)
                        .run();
  const auto loggp = a.query().comm_model("loggp").processors(64).run();
  ASSERT_TRUE(with.ok()) << with.status().to_string();
  ASSERT_TRUE(loggp.ok());
  EXPECT_EQ(with.value().time_us, loggp.value().time_us);

  const auto elsewhere =
      b.query().comm_model("test-loggp-clone").processors(64).run();
  ASSERT_FALSE(elsewhere.ok());
  EXPECT_EQ(elsewhere.status().code(), wave::StatusCode::kNotFound);

  // The DES path resolves the protocol through the same scoped registry.
  const auto sim = a.query()
                       .comm_model("test-loggp-clone")
                       .processors(16)
                       .engine(wave::Engine::Simulation)
                       .run();
  ASSERT_TRUE(sim.ok()) << sim.status().to_string();
  EXPECT_GT(sim.value().time_us, 0.0);
}

TEST(ApiContext, MachineCatalogResolvesNamesAndPaths) {
  wave::Context ctx;
  ASSERT_TRUE(ctx.add_machine_dir(WAVE_MACHINES_DIR).is_ok());
  EXPECT_TRUE(ctx.has_machine("quadcore-shared-bus"));
  EXPECT_TRUE(ctx.has_machine("fatnode-loggps"));

  // By name (a discovered config) and by explicit path: same machine.
  const wave::core::MachineConfig by_name =
      ctx.resolve_machine("fatnode-loggps");
  const wave::core::MachineConfig by_path = ctx.resolve_machine(
      std::string(WAVE_MACHINES_DIR) + "/fatnode-loggps.cfg");
  EXPECT_EQ(by_name, by_path);

  // The shipped xt4-dual.cfg shadows (and equals) the preset.
  EXPECT_EQ(ctx.resolve_machine("xt4-dual"),
            wave::core::MachineConfig::xt4_dual_core());
}

// ---- Query -------------------------------------------------------------

TEST(ApiQuery, ModelQueryMatchesDirectSolverEvaluation) {
  const wave::Context ctx;
  const auto r = ctx.query().machine("xt4-dual").processors(256).run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();

  const wave::core::Solver solver(ww::WorkloadInputs::default_app(),
                                  wave::core::MachineConfig::xt4_dual_core(),
                                  ctx.comm_model_registry());
  const wave::core::ModelResult direct = solver.evaluate(256);
  EXPECT_EQ(r.value().time_us, direct.iteration.total);
  EXPECT_EQ(r.value().comm_us, direct.iteration.comm);
  EXPECT_EQ(r.value().machine, "xt4-dual");
  EXPECT_EQ(r.value().comm_model, "loggp");
  EXPECT_EQ(r.value().processors, 256);
  EXPECT_EQ(r.value().term_or("model_iter_us", -1.0),
            direct.iteration.total);
}

TEST(ApiQuery, SimulationEngineAndTermBreakdown) {
  const wave::Context ctx;
  const auto r = ctx.query()
                     .machine("xt4-single")
                     .processors(16)
                     .engine(wave::Engine::Simulation)
                     .run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_GT(r.value().time_us, 0.0);
  EXPECT_GT(r.value().term_or("sim_events", 0.0), 0.0);
  EXPECT_GT(r.value().term_or("sim_messages", 0.0), 0.0);
}

TEST(ApiQuery, ValidatePopulatesDivergence) {
  const wave::Context ctx;
  const auto r = ctx.query()
                     .machine("xt4-single")
                     .workload("pingpong")
                     .validate()
                     .run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r.value().validated);
  EXPECT_GT(r.value().model_us, 0.0);
  EXPECT_GT(r.value().sim_us, 0.0);
  // The pingpong contract is exact: model == fabric to ~1e-6.
  EXPECT_TRUE(r.value().within_tolerance);
  EXPECT_LT(r.value().divergence_pct, 1e-4);
}

TEST(ApiQuery, ErrorsAreStatusesNotExceptions) {
  const wave::Context ctx;
  const auto unknown_workload =
      ctx.query().workload("no-such-workload").run();
  ASSERT_FALSE(unknown_workload.ok());
  EXPECT_EQ(unknown_workload.status().code(), wave::StatusCode::kNotFound);
  // The message carries the registered vocabulary.
  EXPECT_NE(unknown_workload.status().message().find("wavefront"),
            std::string::npos);

  const auto unknown_machine = ctx.query().machine("no-such-machine").run();
  ASSERT_FALSE(unknown_machine.ok());
  EXPECT_EQ(unknown_machine.status().code(), wave::StatusCode::kNotFound);

  const auto unknown_comm = ctx.query().comm_model("no-such-model").run();
  ASSERT_FALSE(unknown_comm.ok());
  EXPECT_EQ(unknown_comm.status().code(), wave::StatusCode::kNotFound);

  const auto unknown_preset = ctx.query().app("no-such-preset").run();
  ASSERT_FALSE(unknown_preset.ok());
  EXPECT_EQ(unknown_preset.status().code(), wave::StatusCode::kNotFound);

  const auto bad_domain = ctx.query().processors(0).run();
  ASSERT_FALSE(bad_domain.ok());
  EXPECT_EQ(bad_domain.status().code(), wave::StatusCode::kInvalidArgument);

  const auto unbound = wave::Query().run();
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), wave::StatusCode::kFailedPrecondition);
}

TEST(ApiQuery, NotFoundIsDecidedByTypeNotMessageText) {
  // A workload rejecting its input with text that reads like a failed
  // lookup is still a bad value: only the registries' own typed error
  // means kNotFound.
  class LookalikeWorkload : public StubWorkload {
   public:
    LookalikeWorkload() : StubWorkload("lookalike") {}
    ww::ModelOutput predict(const wave::core::MachineConfig&,
                            const wave::loggp::CommModel&,
                            const ww::WorkloadInputs&) const override {
      throw wave::common::contract_error(
          "bad input: unknown workload 'x' (registered: none)");
    }
  };
  wave::Context ctx;
  ASSERT_TRUE(
      ctx.register_workload(std::make_shared<LookalikeWorkload>()).is_ok());
  const auto r = ctx.query().workload("lookalike").run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), wave::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unknown workload 'x'"),
            std::string::npos);
}

TEST(ApiQuery, GridSidesBelowOneAreInvalidArgument) {
  // Once grid() is called it replaces processors(); a side < 1 is a bad
  // value, never a silent fallback to the processor count.
  const wave::Context ctx;
  const std::pair<int, int> bad[] = {{0, 8}, {8, 0}, {-1, 4}, {0, 0}};
  for (const auto& [n, m] : bad) {
    const auto r = ctx.query().processors(64).grid(n, m).run();
    ASSERT_FALSE(r.ok()) << n << "x" << m;
    EXPECT_EQ(r.status().code(), wave::StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("grid"), std::string::npos);
  }

  const auto grid = ctx.query().processors(64).grid(4, 2).run();
  ASSERT_TRUE(grid.ok()) << grid.status().to_string();
  EXPECT_EQ(grid.value().processors, 8);
  // A later processors() call drops the grid again.
  const auto reset = ctx.query().grid(0, 8).processors(16).run();
  ASSERT_TRUE(reset.ok()) << reset.status().to_string();
  EXPECT_EQ(reset.value().processors, 16);
}

// Query::sim_threads is a compatibility shim: every count >= 0 runs the
// one serial engine, so the Results are bit-identical; negatives are still
// rejected as a Status.
TEST(ApiQuery, SimThreadsShimRunsTheSerialEngine) {
  const wave::Context ctx;
  const wave::Query base = ctx.query()
                               .machine("xt4-dual")
                               .processors(64)
                               .engine(wave::Engine::Simulation);
  const auto bits = [](const wave::Result& r) {
    std::string out;
    const auto append = [&out](double v) {
      char buf[sizeof v];
      std::memcpy(buf, &v, sizeof v);
      out.append(buf, sizeof v);
    };
    for (double v : {r.time_us, r.comm_us, r.model_us, r.sim_us,
                     r.divergence_pct})
      append(v);
    for (const auto& [name, value] : r.terms) {
      out += name;
      append(value);
    }
    return out;
  };
  const auto serial = wave::Query(base).sim_threads(0).run();
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();
  EXPECT_GT(serial.value().term_or("sim_events", 0.0), 0.0);
  for (int threads : {1, 4}) {
    const auto r = wave::Query(base).sim_threads(threads).run();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(bits(r.value()), bits(serial.value())) << "threads=" << threads;
  }

  const auto negative = wave::Query(base).sim_threads(-1).run();
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), wave::StatusCode::kInvalidArgument);
}

// ---- Study round-trip against the pre-facade runner --------------------

TEST(ApiStudy, CsvIsByteIdenticalWithHandBuiltSweep) {
  const wave::Context ctx;

  // The facade study…
  const auto study = ctx.study()
                         .machines({"xt4-dual", "xt4-single"})
                         .comm_models({"loggp", "loggps"})
                         .processors({16, 64, 256})
                         .engines({wave::Engine::Model})
                         .run();
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  ASSERT_EQ(study.value().rows.size(), 12u);

  // …and the same sweep built the pre-facade way.
  wave::runner::SweepGrid grid;
  grid.base().app = ww::WorkloadInputs::default_app();
  grid.machines({{"xt4-dual", wave::core::MachineConfig::xt4_dual_core()},
                 {"xt4-single", wave::core::MachineConfig::xt4_single_core()}});
  grid.comm_models(ctx, {"loggp", "loggps"});
  grid.processors({16, 64, 256});
  grid.engines({wave::runner::Engine::Model});
  const auto records =
      wave::runner::BatchRunner(ctx, wave::runner::BatchRunner::Options(0))
          .run(grid);

  EXPECT_EQ(study.value().csv(), wave::runner::to_csv(records));
}

TEST(ApiStudy, MixedEnginesAndWorkloadAxisRoundTrip) {
  const wave::Context ctx;
  const auto study =
      ctx.study()
          .machine("xt4-single")
          .workloads({"pingpong", "allreduce-storm"})
          .processors({4})
          .engines({wave::Engine::Model, wave::Engine::Simulation})
          .run();
  ASSERT_TRUE(study.ok()) << study.status().to_string();

  wave::runner::SweepGrid grid;
  grid.base().app = ww::WorkloadInputs::default_app();
  grid.base().machine = wave::core::MachineConfig::xt4_single_core();
  grid.workloads(ctx, {"pingpong", "allreduce-storm"});
  grid.processors({4});
  grid.engines(
      {wave::runner::Engine::Model, wave::runner::Engine::Simulation});
  const auto records =
      wave::runner::BatchRunner(ctx, wave::runner::BatchRunner::Options(0))
          .run(grid);

  EXPECT_EQ(study.value().csv(), wave::runner::to_csv(records));
}

TEST(ApiStudy, UnknownAxisNameFailsAsStatus) {
  const wave::Context ctx;
  const auto study = ctx.study().workloads({"wavefront", "typo"}).run();
  ASSERT_FALSE(study.ok());
  EXPECT_EQ(study.status().code(), wave::StatusCode::kNotFound);
}

// ---- Columnar Study results against the scalar reference ---------------

namespace {

namespace wr = wave::runner;

/// A processor axis as Study::processors builds it: the decomposition
/// only, no params["P"].
wr::Axis processors_axis(const std::vector<int>& counts) {
  wr::Axis axis{"P", {}};
  for (const int p : counts)
    axis.levels.push_back(
        {wr::format_value(p), [g = wave::topo::closest_to_square(p)](
                                  wr::Scenario& s) { s.grid = g; }});
  return axis;
}

/// Machine-axis levels resolved through `ctx`, labelled as Study labels
/// them.
std::vector<std::pair<std::string, wave::core::MachineConfig>> resolved(
    const wave::Context& ctx, const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, wave::core::MachineConfig>> out;
  for (const std::string& name : names) {
    wave::core::MachineConfig m = ctx.resolve_machine(name);
    out.emplace_back(m.name, std::move(m));
  }
  return out;
}

/// The study's CSV, and every row it materializes (by range-for and by
/// index), equal the scalar reference records field by field, with the
/// doubles compared bit for bit.
void expect_rows_equal(const wave::StudyResult& study,
                       const std::vector<wr::RunRecord>& reference) {
  EXPECT_EQ(study.csv(), wr::to_csv(reference));
  ASSERT_EQ(study.rows.size(), reference.size());
  std::size_t k = 0;
  for (const auto& row : study.rows) {
    const wr::RunRecord& r = reference[k];
    const wave::StudyRow indexed = study.rows[k];
    ++k;
    for (const wave::StudyRow* got : {&row, &indexed}) {
      EXPECT_EQ(got->index, r.index);
      EXPECT_EQ(got->labels, r.labels) << "row " << r.index;
      ASSERT_EQ(got->metrics.size(), r.metrics.size()) << "row " << r.index;
      for (std::size_t j = 0; j < r.metrics.size(); ++j) {
        EXPECT_EQ(got->metrics[j].first, r.metrics[j].first);
        EXPECT_EQ(std::memcmp(&got->metrics[j].second, &r.metrics[j].second,
                              sizeof(double)),
                  0)
            << "row " << r.index << " " << r.metrics[j].first;
      }
    }
  }
  EXPECT_EQ(k, reference.size());
}

std::vector<wr::RunRecord> scalar_reference(const wave::Context& ctx,
                                            const wr::SweepGrid& grid,
                                            bool validate = false) {
  return wr::BatchRunner(ctx, wr::BatchRunner::Options(0))
      .run(grid.points(), [&](const wr::Scenario& s) {
        return validate ? wr::workload_model_vs_sim_metrics(ctx, s)
                        : wr::evaluate_scenario(ctx, s);
      });
}

/// A workload that counts its evaluations.
class CountingWorkload : public StubWorkload {
 public:
  CountingWorkload() : StubWorkload("counting") {}
  ww::ModelOutput predict(const wave::core::MachineConfig& machine,
                          const wave::loggp::CommModel& comm,
                          const ww::WorkloadInputs& in) const override {
    ++calls;
    return StubWorkload::predict(machine, comm, in);
  }
  ww::SimOutput simulate(const ww::SimMachine& machine,
                         const ww::WorkloadInputs& in) const override {
    ++calls;
    return StubWorkload::simulate(machine, in);
  }
  mutable std::atomic<int> calls{0};
};

}  // namespace

TEST(ApiStudy, WhatIfStudiesMatchTheScalarReference) {
  // perfbench's what-if sweep: four apps, each over five machines, three
  // backends and 81 processor counts, all batched.
  wave::Context ctx;
  ASSERT_TRUE(ctx.add_machine_dir(WAVE_MACHINES_DIR).is_ok());
  const std::vector<std::string> machines = {
      "xt4-dual", "xt4-single", "sp2", "fatnode-loggps",
      "quadcore-shared-bus"};
  const std::vector<std::string> comms = {"loggp", "loggps", "contention"};
  std::vector<int> procs;  // 64 .. 65,536, eight per octave
  for (int k = 0; k <= 80; ++k)
    procs.push_back(static_cast<int>(std::lround(64 * std::exp2(k / 8.0))));
  for (const std::string app : {"sweep3d-20m", "sweep3d-1g", "lu", "chimaera"}) {
    const auto study = ctx.study()
                           .app(app)
                           .machines(machines)
                           .comm_models(comms)
                           .processors(procs)
                           .run();
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    ASSERT_EQ(study.value().rows.size(), 1215u);

    wr::SweepGrid grid;
    grid.base().app = wave::api::app_preset(app);
    grid.machines(resolved(ctx, machines));
    grid.comm_models(ctx, comms);
    grid.axis(processors_axis(procs));
    SCOPED_TRACE(app);
    expect_rows_equal(study.value(), scalar_reference(ctx, grid));
  }
}

TEST(ApiStudy, LastMachineAxisWinsAsInTheScalarReference) {
  // Both axes label each row; the CSV shows the first "machine" label,
  // while the point evaluates the second axis's machine.
  const wave::Context ctx;
  const auto study = ctx.study()
                         .machines({"xt4-dual", "sp2"})
                         .comm_models({"loggp", "loggps"})
                         .machines({"xt4-single", "xt4-dual"})
                         .processors({16, 256})
                         .run();
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  ASSERT_EQ(study.value().rows.size(), 16u);
  EXPECT_EQ(study.value().rows[0].labels.size(), 4u);

  wr::SweepGrid grid;
  grid.base().app = ww::WorkloadInputs::default_app();
  grid.machines(resolved(ctx, {"xt4-dual", "sp2"}));
  grid.comm_models(ctx, {"loggp", "loggps"});
  grid.machines(resolved(ctx, {"xt4-single", "xt4-dual"}));
  grid.axis(processors_axis({16, 256}));
  expect_rows_equal(study.value(), scalar_reference(ctx, grid));
}

TEST(ApiStudy, HeterogeneousRowsMatchTheScalarReference) {
  // Four metric lists: the batched wavefront model, the wavefront DES
  // (whose "bytes" levels share one run), and pingpong's model and DES.
  const wave::Context ctx;
  for (const bool validate : {false, true}) {
    const auto study = ctx.study()
                           .machine("xt4-single")
                           .engines({wave::Engine::Model,
                                     wave::Engine::Simulation})
                           .workloads({"wavefront", "pingpong"})
                           .values("bytes", {64, 8192})
                           .processors({4, 16})
                           .validate(validate)
                           .run();
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    ASSERT_EQ(study.value().rows.size(), 16u);

    wr::SweepGrid grid;
    grid.base().app = ww::WorkloadInputs::default_app();
    grid.base().machine = wave::core::MachineConfig::xt4_single_core();
    grid.engines({wr::Engine::Model, wr::Engine::Simulation});
    grid.workloads(ctx, {"wavefront", "pingpong"});
    grid.values("bytes", {64, 8192});
    grid.axis(processors_axis({4, 16}));
    const auto reference = scalar_reference(ctx, grid, validate);
    std::vector<std::vector<std::string>> schemas;
    for (const wr::RunRecord& r : reference) {
      std::vector<std::string> names;
      for (const auto& [name, value] : r.metrics) names.push_back(name);
      if (std::find(schemas.begin(), schemas.end(), names) == schemas.end())
        schemas.push_back(std::move(names));
    }
    EXPECT_EQ(schemas.size(), validate ? 2u : 4u);
    SCOPED_TRACE(validate ? "validate" : "dispatch");
    expect_rows_equal(study.value(), reference);
  }
}

TEST(ApiStudy, BadAxisValueFailsBeforeAnyEvaluation) {
  wave::Context ctx;
  const auto counting = std::make_shared<CountingWorkload>();
  ASSERT_TRUE(ctx.register_workload(counting).is_ok());

  const auto unknown = ctx.study()
                           .workloads({"counting"})
                           .processors({4})
                           .machines({"xt4-single", "no-such-machine"})
                           .run();
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), wave::StatusCode::kNotFound);

  const auto empty = ctx.study()
                         .workloads({"counting"})
                         .engines({wave::Engine::Model})
                         .values("bytes", {})
                         .run();
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), wave::StatusCode::kInvalidArgument);
  EXPECT_EQ(counting->calls.load(), 0);

  // The same study with good values evaluates every point once.
  const auto good = ctx.study()
                        .workloads({"counting"})
                        .processors({4})
                        .machines({"xt4-single", "xt4-dual"})
                        .run();
  ASSERT_TRUE(good.ok()) << good.status().to_string();
  EXPECT_EQ(counting->calls.load(), 2);
}
