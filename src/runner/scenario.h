// Declarative scenario sweeps for the plug-and-play evaluation pipeline.
//
// The paper's whole workflow is "sweep an application model over machines,
// processor counts, decompositions and design variants" (§5). A `Scenario`
// is one fully-determined point of such a study; a `SweepGrid` builds the
// cartesian product of named axes over a base scenario, so a driver states
// *what* to explore and the BatchRunner decides *how* to execute it.
//
// Axes compose: each axis level carries an `apply` mutation executed in
// axis-declaration order, so a later axis may read values an earlier one
// stored (e.g. a node-count axis sets params["nodes"], a cores-per-node
// axis then derives the machine and the processor grid from it).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/app_params.h"
#include "core/machine.h"
#include "topology/grid.h"

namespace wave {
class Context;
}  // namespace wave

namespace wave::obs {
class MetricsRegistry;
class SpanCapture;
}  // namespace wave::obs

namespace wave::runner {

/// How a scenario point is evaluated by the canned evaluators.
enum class Engine {
  Model,       ///< analytic Solver::evaluate (microseconds per point)
  Simulation,  ///< discrete-event simulate_wavefront (the "measured" side)
};

/// One fully-determined evaluation point of a sweep.
struct Scenario {
  core::AppParams app;
  core::MachineConfig machine = core::MachineConfig::xt4_dual_core();
  /// When non-empty, overrides machine.comm_model (see effective_machine).
  /// Kept separate from `machine` so a comm-model axis or a --comm-model
  /// flag composes with machine axes regardless of declaration order.
  std::string comm_model;
  /// Registered workload evaluated at this point (workloads/registry.h).
  /// "wavefront" — the default — keeps the canned evaluators on the
  /// original wavefront pipeline, byte-identical with pre-registry sweeps.
  std::string workload = "wavefront";
  topo::Grid grid{1, 1};  ///< processor decomposition
  Engine engine = Engine::Model;
  int iterations = 1;  ///< DES iterations for Engine::Simulation

  /// Optional (non-owning) observability hooks, forwarded into the DES
  /// run's sim::Observers. Strictly inert by the instrumentation
  /// contract (docs/OBSERVABILITY.md): attaching them never changes a
  /// result, a CSV record, or the point's identity/seed. Both must
  /// outlive the evaluation.
  obs::MetricsRegistry* metrics = nullptr;
  obs::SpanCapture* trace = nullptr;

  /// Axis labels in axis-declaration order (axis name -> level label).
  std::vector<std::pair<std::string, std::string>> labels;
  /// Free-form numeric axis values for custom point functions.
  std::map<std::string, double> params;

  /// Deterministic per-point RNG seed, derived from the cartesian index of
  /// the point (stable under SweepGrid::filter), so batch results are
  /// bit-identical at any thread count.
  std::uint64_t seed = 0;
  /// Cartesian index of the point in its sweep (pre-filter).
  std::size_t index = 0;

  /// Numeric parameter; throws common::contract_error when absent.
  double param(const std::string& name) const;

  /// Sets the closest-to-square decomposition of `p` ranks.
  void set_processors(int p) { grid = topo::closest_to_square(p); }
  int processors() const { return grid.size(); }

  /// The machine this point evaluates: `machine`, with comm_model replaced
  /// by the override when one is set. The canned evaluators
  /// (batch_runner.h) all go through this.
  core::MachineConfig effective_machine() const;
};

/// A named sweep axis: an ordered list of levels, each a labelled mutation
/// of the scenario under construction.
struct Axis {
  struct Level {
    std::string label;
    std::function<void(Scenario&)> apply;  ///< may be empty (label-only)
  };

  std::string name;
  std::vector<Level> levels;
};

/// Derives a per-point seed from the sweep's base seed and the point's
/// cartesian index (splitmix64 finalizer — avalanches consecutive indices).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

/// Cartesian product of axes over a base scenario. The first declared axis
/// varies slowest, so points enumerate in the nested-loop order the
/// hand-rolled drivers used.
class SweepGrid {
 public:
  SweepGrid() = default;
  explicit SweepGrid(Scenario base) : base_(std::move(base)) {}

  Scenario& base() { return base_; }
  const Scenario& base() const { return base_; }

  /// Appends a fully-specified axis.
  SweepGrid& axis(Axis axis);
  SweepGrid& axis(std::string name, std::vector<Axis::Level> levels);

  // ---- Convenience axes -----------------------------------------------

  /// Processor-count axis; each level sets the closest-to-square grid.
  SweepGrid& processors(std::vector<int> counts, std::string name = "P");

  /// Application axis.
  SweepGrid& apps(
      std::vector<std::pair<std::string, core::AppParams>> apps,
      std::string name = "application");

  /// Machine axis.
  SweepGrid& machines(
      std::vector<std::pair<std::string, core::MachineConfig>> machines,
      std::string name = "machine");

  /// Machine axis from config files (machines/*.cfg), loaded eagerly so a
  /// bad file fails at sweep construction; levels are labelled by each
  /// config's `name`. Each config's comm_model is validated against the
  /// context's registry. Throws core::ConfigError on unreadable/invalid
  /// files.
  SweepGrid& machine_files(const wave::Context& ctx,
                           const std::vector<std::string>& paths,
                           std::string name = "machine");

  /// Communication-backend axis: each level sets the scenario's comm-model
  /// override (Scenario::comm_model), so it composes with machine axes in
  /// either declaration order. Names are validated eagerly against the
  /// context's registry so a typo fails at sweep construction.
  SweepGrid& comm_models(const wave::Context& ctx,
                         const std::vector<std::string>& names,
                         std::string name = "comm");

  /// Workload axis: each level selects a workload registered in the
  /// context by name, validated eagerly so a typo fails at sweep
  /// construction. The canned evaluators route non-wavefront names through
  /// the registry's paired predict/simulate contract.
  SweepGrid& workloads(const wave::Context& ctx,
                       const std::vector<std::string>& names,
                       std::string name = "workload");

  /// Evaluation-engine axis (labels "model" / "sim").
  SweepGrid& engines(std::vector<Engine> engines, std::string name = "engine");

  /// Numeric axis: stores each value in params[name] (label = the value).
  SweepGrid& values(std::string name, std::vector<double> values);

  /// Numeric axis with a mutation applied after params[name] is stored.
  SweepGrid& values(std::string name, std::vector<double> values,
                    std::function<void(Scenario&, double)> apply);

  /// Drops points failing the predicate. Indices (and therefore seeds) of
  /// surviving points are unchanged.
  SweepGrid& filter(std::function<bool(const Scenario&)> predicate);

  /// Base seed from which every point's seed is derived.
  SweepGrid& seed(std::uint64_t base_seed);

  /// Enumerates the (filtered) cartesian product.
  std::vector<Scenario> points() const;

  /// The axes, in declaration order.
  const std::vector<Axis>& axes() const { return axes_; }

  /// Product of the axis level counts (the pre-filter point count).
  std::size_t cartesian_size() const;

  /// Builds the point at cartesian `index` < cartesian_size() into `out`
  /// (labels, seed, axis mutations applied), reusing its storage; returns
  /// false when a filter rejects it. points() is this over every index.
  bool build_point(std::size_t index, Scenario& out) const;

 private:
  Scenario base_;
  std::vector<Axis> axes_;
  std::vector<std::function<bool(const Scenario&)>> filters_;
  std::uint64_t base_seed_ = 2008;
};

/// Formats a numeric axis value compactly ("4", "0.5") for labels.
std::string format_value(double value);

}  // namespace wave::runner
