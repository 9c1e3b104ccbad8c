// Fluent single-point evaluation on the stable `wave::` facade.
//
// A Query names one scenario — machine, workload, communication model,
// decomposition, engine — entirely with strings and numbers, and produces
// a typed Result:
//
//   wave::Context ctx;
//   auto r = ctx.query()
//                .machine("xt4-dual")
//                .workload("sweep3d-hybrid")
//                .comm_model("loggps")
//                .processors(256)
//                .engine(wave::Engine::Simulation)
//                .run();
//   if (!r.ok()) { std::cerr << r.status().to_string() << "\n"; return 1; }
//   std::cout << r.value().time_us << " us/iteration\n";
//
// Builder methods only record values; every lookup and domain check
// happens in run(), which reports problems as a Status instead of
// throwing. Queries are plain values: copyable, comparable-by-content via
// the canonical key (see EvalService), and reusable across runs.
//
// This header is self-contained: it depends only on the C++ standard
// library, wave/status.h, and forward declarations of internal types.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "wave/status.h"

namespace wave {

class Context;

/// @brief How a query point is evaluated.
enum class Engine {
  Model,       ///< analytic closed forms / recurrences (microseconds)
  Simulation,  ///< discrete-event simulation (the "measurement" stand-in)
};

/// @brief "model" / "sim" — the label vocabulary shared with Study axes.
std::string to_string(Engine engine);

/// @brief The typed outcome of one evaluated query.
struct Result {
  // ---- identity echo (what was actually evaluated) ---------------------
  std::string workload;    ///< registered workload name
  std::string machine;     ///< resolved machine's display name
  std::string comm_model;  ///< backend that evaluated the LogGP parameters
  int processors = 1;
  Engine engine = Engine::Model;

  // ---- headline numbers ------------------------------------------------
  /// Time for one iteration, in microseconds: predicted (Engine::Model)
  /// or simulated (Engine::Simulation).
  double time_us = 0.0;
  /// Communication share of time_us, when the path reports one.
  double comm_us = 0.0;
  /// The full term breakdown, in evaluation order: every named metric the
  /// engine produced (fill/stack terms, event and message counts, ...).
  std::vector<std::pair<std::string, double>> terms;

  // ---- model-vs-simulation divergence (Query::validate()) --------------
  bool validated = false;  ///< true when both paths ran
  double model_us = 0.0;
  double sim_us = 0.0;
  double divergence_pct = 0.0;     ///< 100 * |model - sim| / sim
  bool within_tolerance = false;   ///< inside the workload's declared bound

  /// Value of a named term, or `fallback` when absent.
  double term_or(const std::string& name, double fallback) const {
    for (const auto& [key, value] : terms)
      if (key == name) return value;
    return fallback;
  }
};

/// @brief Fluent builder for one evaluation point. Obtain via
///   Context::query(); the query stays bound to that Context (which must
///   outlive it).
class Query {
 public:
  /// An unbound query; run() returns kFailedPrecondition until it is
  /// obtained from (or bound to) a Context.
  Query() = default;

  // ---- scenario builders (record only; validated in run()) -------------

  /// Machine by catalog name ("xt4-dual", any name added to the Context)
  /// or by machines/*.cfg path.
  Query& machine(std::string name_or_path);
  /// Registered workload name (default "wavefront").
  Query& workload(std::string name);
  /// Communication backend override; empty keeps the machine's own choice.
  Query& comm_model(std::string name);
  /// Application preset: "sweep3d-64" (the default; small enough that the
  /// DES path runs in milliseconds), "sweep3d-20m", "sweep3d-1g", "lu",
  /// "chimaera". Wavefront-family workloads read it; others ignore it.
  Query& app(std::string preset);
  /// Overrides the preset's measured per-cell work Wg (µs for all angles
  /// of one cell — measure on the host you predict for, cf. §4.3).
  Query& wg(double us_per_cell);
  /// Overrides the preset's data-grid size.
  Query& problem(double nx, double ny, double nz);
  /// Closest-to-square decomposition of `count` ranks.
  Query& processors(int count);
  /// Explicit n-columns x m-rows decomposition; it replaces processors()
  /// until processors() is called again. Both sides must be >= 1, else
  /// run() fails with kInvalidArgument.
  Query& grid(int columns, int rows);
  /// DES repetitions (results are per iteration).
  Query& iterations(int count);
  /// Compatibility shim: every simulation runs on the one serial engine,
  /// so any count >= 0 gives the same Result and the same cache key. A
  /// negative count still fails evaluation with kInvalidArgument.
  Query& sim_threads(int count);
  Query& engine(Engine engine);
  /// Workload-specific knob (see Context::workloads() for each schema).
  Query& param(std::string name, double value);
  /// Run both paths and populate the divergence block of the Result.
  Query& validate(bool on = true);
  /// Writes an execution timeline of the evaluation to `path` as Chrome
  /// trace-event JSON (load in Perfetto / chrome://tracing; see
  /// docs/OBSERVABILITY.md). Simulation points record per-rank
  /// compute/send/recv/wait spans; analytic points produce a valid but
  /// empty trace. Purely observational: the result, and the scenario's
  /// cache identity in EvalService, are unchanged. Empty disables.
  Query& trace(std::string path);

  /// @brief Evaluates the point. All name lookups resolve against the
  ///   bound Context's registries and machine catalog; any internal
  ///   contract violation surfaces as a Status, never an exception.
  Expected<Result> run() const;

  // ---- introspection (the canonical-key vocabulary) --------------------
  const Context* context() const { return ctx_; }
  const std::string& machine_name() const { return machine_; }
  const std::string& workload_name() const { return workload_; }
  const std::string& comm_model_name() const { return comm_model_; }
  const std::string& app_preset() const { return app_; }
  double wg_override() const { return wg_; }
  int processor_count() const { return processors_; }
  /// True once grid() was called (and processors() not called since).
  bool has_grid() const { return has_grid_; }
  int grid_columns() const { return grid_n_; }
  int grid_rows() const { return grid_m_; }
  int iteration_count() const { return iterations_; }
  int sim_thread_count() const { return sim_threads_; }
  Engine engine_choice() const { return engine_; }
  bool validate_requested() const { return validate_; }
  /// Trace output path ("" = tracing off). Deliberately NOT part of the
  /// canonical cache key (observation never changes scenario identity).
  const std::string& trace_path() const { return trace_path_; }
  const std::map<std::string, double>& params() const { return params_; }
  double problem_nx() const { return nx_; }
  double problem_ny() const { return ny_; }
  double problem_nz() const { return nz_; }

 private:
  friend class Context;
  explicit Query(const Context* ctx) : ctx_(ctx) {}

  const Context* ctx_ = nullptr;
  std::string machine_ = "xt4-dual";
  std::string workload_ = "wavefront";
  std::string comm_model_;  // "" = the machine's own choice
  std::string app_;         // "" = the workload subsystem's canonical app
  double wg_ = 0.0;         // <= 0 = the preset's calibrated value
  double nx_ = 0.0, ny_ = 0.0, nz_ = 0.0;  // <= 0 = the preset's size
  int processors_ = 1;
  int grid_n_ = 0, grid_m_ = 0;
  bool has_grid_ = false;  // false = derive the grid from processors_
  int iterations_ = 1;
  int sim_threads_ = 0;
  Engine engine_ = Engine::Model;
  bool validate_ = false;
  std::string trace_path_;
  std::map<std::string, double> params_;
};

}  // namespace wave
