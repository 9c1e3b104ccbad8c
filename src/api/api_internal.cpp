#include "api/api_internal.h"

#include <typeinfo>
#include <utility>

#include "common/registry.h"
#include "core/benchmarks.h"
#include "core/machine.h"
#include "loggp/registry.h"
#include "runner/batch_runner.h"
#include "workloads/registry.h"

namespace wave::api {

namespace {

struct PresetEntry {
  const char* name;
  core::AppParams (*make)();
};

const PresetEntry kPresets[] = {
    {"sweep3d-64",
     [] {
       core::benchmarks::Sweep3dConfig cfg;
       cfg.nx = cfg.ny = cfg.nz = 64;
       return core::benchmarks::sweep3d(cfg);
     }},
    {"sweep3d-20m", [] { return core::benchmarks::sweep3d_20m(); }},
    {"sweep3d-1g", [] { return core::benchmarks::sweep3d(); }},
    {"lu", [] { return core::benchmarks::lu(); }},
    {"chimaera", [] { return core::benchmarks::chimaera(); }},
};

}  // namespace

std::string app_preset_names_joined() {
  std::string out;
  for (const PresetEntry& p : kPresets)
    out += (out.empty() ? "" : ", ") + std::string(p.name);
  return out;
}

core::AppParams app_preset(const std::string& name) {
  for (const PresetEntry& p : kPresets)
    if (name == p.name) return p.make();
  throw common::unknown_name_error("unknown app preset '" + name +
                                   "' (available: " +
                                   app_preset_names_joined() + ")");
}

core::AppParams resolve_app(const std::string& preset, double wg, double nx,
                            double ny, double nz) {
  core::AppParams app;
  if (!preset.empty()) app = app_preset(preset);
  if (wg > 0.0) {
    // An explicit Wg with no preset applies to the workload subsystem's
    // canonical default app rather than silently doing nothing.
    if (app.nx <= 0.0) app = workloads::WorkloadInputs::default_app();
    app.wg = wg;
  }
  if (nx > 0.0) {
    if (app.nx <= 0.0) app = workloads::WorkloadInputs::default_app();
    app.nx = nx;
    app.ny = ny;
    app.nz = nz;
  }
  // No preset and no overrides: the workload subsystem's canonical app
  // (Sweep3D 64^3), so a bare ctx.query().run() is a valid question.
  if (app.nx <= 0.0) app = workloads::WorkloadInputs::default_app();
  return app;
}

runner::Engine to_runner_engine(Engine engine) {
  return engine == Engine::Model ? runner::Engine::Model
                                 : runner::Engine::Simulation;
}

Engine from_runner_engine(runner::Engine engine) {
  return engine == runner::Engine::Model ? Engine::Model : Engine::Simulation;
}

runner::Scenario scenario_from(const Context& ctx, const Query& query) {
  runner::Scenario s;
  s.machine = ctx.resolve_machine(query.machine_name());

  const std::string& workload = query.workload_name();
  WAVE_EXPECTS_MSG(!workload.empty(), "workload name must be non-empty");
  ctx.workload_registry().require(workload);
  s.workload = workload;

  if (!query.comm_model_name().empty()) {
    ctx.comm_model_registry().require(query.comm_model_name());
    s.comm_model = query.comm_model_name();
  }

  s.app = resolve_app(query.app_preset(), query.wg_override(),
                      query.problem_nx(), query.problem_ny(),
                      query.problem_nz());
  s.app.validate();

  WAVE_EXPECTS_MSG(query.processor_count() >= 1,
                   "processors must be >= 1");
  if (query.has_grid()) {
    WAVE_EXPECTS_MSG(query.grid_columns() >= 1 && query.grid_rows() >= 1,
                     "grid sides must be >= 1, got " +
                         std::to_string(query.grid_columns()) + "x" +
                         std::to_string(query.grid_rows()));
    s.grid = topo::Grid(query.grid_columns(), query.grid_rows());
  } else {
    s.set_processors(query.processor_count());
  }

  WAVE_EXPECTS_MSG(query.iteration_count() >= 1, "iterations must be >= 1");
  s.iterations = query.iteration_count();
  WAVE_EXPECTS_MSG(query.sim_thread_count() >= 0,
                   "sim_threads must be >= 0");
  s.engine = to_runner_engine(query.engine_choice());
  s.params = query.params();
  return s;
}

Result result_from(const Context& ctx, const Query& query,
                   const runner::Scenario& scenario) {
  return result_from_terms(
      query.validate_requested(), scenario,
      query.validate_requested()
          ? runner::workload_model_vs_sim_metrics(ctx, scenario)
          : runner::evaluate_scenario(ctx, scenario));
}

Result result_from_terms(bool validate, const runner::Scenario& scenario,
                         runner::Metrics terms) {
  Result out;
  const core::MachineConfig machine = scenario.effective_machine();
  out.workload = scenario.workload;
  out.machine = machine.name;
  out.comm_model = machine.comm_model;
  out.processors = scenario.processors();
  out.engine = from_runner_engine(scenario.engine);
  out.terms = std::move(terms);

  if (validate) {
    out.validated = true;
    out.model_us = out.term_or("model_us", 0.0);
    out.sim_us = out.term_or("sim_us", 0.0);
    out.divergence_pct = out.term_or("err_pct", 0.0);
    out.within_tolerance = out.term_or("within_tol", 0.0) != 0.0;
    out.time_us =
        out.engine == Engine::Model ? out.model_us : out.sim_us;
    out.comm_us = out.term_or("model_comm_us", 0.0);
    return out;
  }

  // The first metric of every canned evaluator is the headline
  // per-iteration time (model_iter_us / model_us / sim_iter_us / sim_us).
  if (!out.terms.empty()) out.time_us = out.terms.front().second;
  out.comm_us = out.term_or(
      "model_iter_comm_us", out.term_or("model_comm_us", 0.0));
  return out;
}

Status to_status(const std::exception& error) {
  // Only a failed name lookup is kNotFound. The decision is by type, so a
  // workload's own contract_error that happens to mention an unknown name
  // stays a bad value.
  if (dynamic_cast<const common::unknown_name_error*>(&error) != nullptr)
    return Status::not_found(error.what());
  if (dynamic_cast<const common::contract_error*>(&error) != nullptr ||
      dynamic_cast<const core::ConfigError*>(&error) != nullptr)
    return Status::invalid_argument(error.what());
  return Status::internal(error.what());
}

}  // namespace wave::api
