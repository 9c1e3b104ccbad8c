// Shared plumbing of the facade implementation (src/api/*.cpp): the
// Query-vocabulary -> internal-scenario translation, the app-preset
// table, and the exception -> Status boundary. Internal — never installed
// and never included from include/wave/.
#pragma once

#include <string>
#include <vector>

#include "core/app_params.h"
#include "runner/record.h"
#include "runner/scenario.h"
#include "wave/context.h"
#include "wave/query.h"
#include "wave/status.h"

namespace wave::api {

/// The application presets the facade exposes by name. Throws
/// common::unknown_name_error (listing the vocabulary) on an unknown name.
core::AppParams app_preset(const std::string& name);

/// "a, b, c" — the preset vocabulary for error messages and docs.
std::string app_preset_names_joined();

/// The application a Query or Optimize describes: the named preset
/// (empty = none), then the wg and problem overrides (<= 0 = unset). Any
/// override without a preset, or no input at all, starts from the
/// workload subsystem's canonical default app. Not validated.
core::AppParams resolve_app(const std::string& preset, double wg, double nx,
                            double ny, double nz);

/// Builds the internal scenario a Query describes: resolves the machine
/// against `ctx`, validates workload and comm-model names, applies the
/// app preset plus wg/problem overrides. Throws on any unknown name or
/// domain violation (callers wrap with to_status).
runner::Scenario scenario_from(const Context& ctx, const Query& query);

/// Evaluates `scenario` and maps its metrics onto the typed Result,
/// including the divergence block when the query asked to validate.
Result result_from(const Context& ctx, const Query& query,
                   const runner::Scenario& scenario);

/// The Result mapping of result_from over already-evaluated `terms`:
/// workload_model_vs_sim_metrics when `validate`, evaluate_scenario's
/// metric set (or a BatchRunner record's) otherwise. The Result's engine
/// is the scenario's.
Result result_from_terms(bool validate, const runner::Scenario& scenario,
                         runner::Metrics terms);

/// The facade's engine enum <-> the runner's.
runner::Engine to_runner_engine(Engine engine);
Engine from_runner_engine(runner::Engine engine);

/// Translates the internal exception taxonomy onto the Status codes the
/// facade promises (common::unknown_name_error -> kNotFound; any other
/// contract or config error -> kInvalidArgument; anything else ->
/// kInternal).
Status to_status(const std::exception& error);

}  // namespace wave::api
