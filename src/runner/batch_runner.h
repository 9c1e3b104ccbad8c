// Parallel batch execution of scenario sweeps.
//
// BatchRunner maps a point function over the scenarios of a sweep on a
// thread pool. Analytic Solver::evaluate points and independent
// single-threaded DES simulate_wavefront runs both parallelize at the
// scenario level; results land in slots indexed by point, and any
// randomness comes from the point's own derived seed, so the record set is
// bit-identical at any thread count.
//
// The default (no-PointFn) run() additionally routes analytic wavefront
// points through the batch solver (core/batch_solver.h): one BatchEval
// plan is compiled for the whole sweep, so machine backends and app terms
// resolve once per unique axis value instead of once per point. The batch
// points are grouped into units — points sharing an app and a grid, at
// most 16 to a unit — and each unit is one evaluate_group() call, which
// runs the pipeline-fill recurrence once per distinct input: sweep points
// that differ only in a backend that prices the fill alike share one
// fill, and on thin grids the distinct fills run side by side, one per
// vector lane. The cap keeps a long sweep of machine parameters at one
// grid spread over the pool. Units go largest grid first; every other
// point is a unit of its own, except that unobserved wavefront DES points
// with equal app, grid, iterations and workloads::SimMachine (say, one
// machine under two backends that price no rendezvous sync) share one run. The records are byte-identical
// to the scalar path — the batch solver's correctness contract — so the
// default run() always routes; run(points, evaluate_scenario) is the
// scalar reference.
#pragma once

#include <functional>
#include <vector>

#include "core/batch_solver.h"
#include "runner/record.h"
#include "runner/scenario.h"
#include "workloads/workload.h"

namespace wave::runner {

// The canned evaluators resolve registry names (machine.comm_model,
// Scenario::workload) against an explicit wave::Context, so two embedded
// studies with different registrations never interfere.

/// Canned evaluation: the analytic model on the point's (app, machine,
/// grid). Metrics: model_iter_us, model_iter_comm_us, model_timestep_us,
/// model_timestep_comm_us, model_fill_us, model_fill_comm_us.
Metrics model_metrics(const wave::Context& ctx, const Scenario& s);

/// The model metric set of an already-evaluated result — the shared tail
/// of model_metrics and the batch-routed path, so both emit identical
/// records from identical ModelResult bits.
Metrics model_metrics_from(const core::ModelResult& res);

/// Canned evaluation: the discrete-event simulator on the same point.
/// Metrics: sim_iter_us, sim_makespan_us, sim_events, sim_messages,
/// sim_bus_wait_us, sim_nic_wait_us, sim_mpi_busy_us.
Metrics sim_metrics(const wave::Context& ctx, const Scenario& s);

/// Dispatches on `s.engine` (Model -> model_metrics, Simulation ->
/// sim_metrics). The default point function of BatchRunner::run.
/// Scenarios whose `workload` is not "wavefront" route through the
/// context's workload registry (workload_metrics) instead of the
/// wavefront-specific evaluators above, so any registered workload rides
/// every driver that uses the default point function.
Metrics evaluate_scenario(const wave::Context& ctx, const Scenario& s);

/// Canned evaluation: model *and* simulator on the same point, plus
/// err_pct = 100 * |model - sim| / sim per iteration — the paper's
/// validation metric.
Metrics model_vs_sim_metrics(const wave::Context& ctx, const Scenario& s);

/// Canned evaluation through the workload registry: dispatches on
/// `s.engine` to the named workload's predict (metrics model_us,
/// model_comm_us + workload extras) or simulate (sim_us, sim_makespan_us,
/// sim_events, sim_messages, sim_bus_wait_us, sim_nic_wait_us,
/// sim_mpi_busy_us + extras). Metric names are uniform across workloads —
/// the point function of cross-workload sweeps (bench/workload_matrix).
Metrics workload_metrics(const wave::Context& ctx, const Scenario& s);

/// Both workload paths on the same point plus err_pct and within_tol
/// (1 when err is inside the workload's declared tolerance).
Metrics workload_model_vs_sim_metrics(const wave::Context& ctx,
                                      const Scenario& s);

/// The WorkloadInputs a scenario point hands its workload: app, grid,
/// iterations and the free-form params (axis values double as workload
/// parameters).
workloads::WorkloadInputs workload_inputs(const Scenario& s);

/// Executes scenario points on a thread pool.
class BatchRunner {
 public:
  struct Options {
    int threads;  ///< <= 0 selects hardware concurrency
    Options() : threads(0) {}
    explicit Options(int threads_) : threads(threads_) {}
  };

  /// Computes the metrics of one scenario point.
  using PointFn = std::function<Metrics(const Scenario&)>;

  /// Runs point functions against `ctx` (the default point function
  /// resolves workload/comm-model names through it). `ctx` must outlive
  /// the runner.
  explicit BatchRunner(const wave::Context& ctx, Options options = Options())
      : ctx_(&ctx), options_(options) {}

  int threads() const;

  /// Units claimed per pool dispatch by run(points, fn) — a unit is one
  /// point there; the default run()'s batch route applies the same rule
  /// to its units, groups of up to 16 points sharing an app and a grid.
  /// Pure-analytic sweeps get a chunk sized so each thread sees ~16
  /// dispatches (cheap microsecond units
  /// stop paying one atomic round-trip each); any sweep containing a DES
  /// point gets chunk = 1 (points are seconds-long, dispatch overhead is
  /// noise and fine-grained claiming load-balances best). Chunking never
  /// changes the records, only the execution schedule
  /// (tests/test_runner.cpp pins this). Exposed for tests.
  std::size_t chunk_for(const std::vector<Scenario>& points) const;

  /// Runs `fn` over every point; records come back in point order
  /// regardless of the execution schedule. Explicit-PointFn runs never
  /// batch-route (the caller owns evaluation).
  std::vector<RunRecord> run(const std::vector<Scenario>& points,
                             const PointFn& fn) const;

  /// Default evaluation: compiles the analytic wavefront points into one
  /// BatchEval plan, evaluates them in shared-fill units and routes
  /// everything else through evaluate_scenario. Wavefront DES points with
  /// no registry or span capture attached run once per distinct app,
  /// grid, iterations and workloads::SimMachine, built by the
  /// sim_machine call sim_metrics makes; the others copy that run's
  /// metrics. The records equal run(points, evaluate_scenario)'s byte for
  /// byte. Plan compilation and DES keying validate every batched point's
  /// app and every shared DES point's machine eagerly, so a bad axis value
  /// throws here rather than from a worker thread. A registry
  /// attached to a point records the point's `runner_point_latency_us`
  /// once; points of one unit each record an equal share of the unit's
  /// wall time.
  std::vector<RunRecord> run(const std::vector<Scenario>& points) const;
  std::vector<RunRecord> run(const SweepGrid& grid, const PointFn& fn) const;
  std::vector<RunRecord> run(const SweepGrid& grid) const;

 private:
  const wave::Context* ctx_;
  Options options_;
};

}  // namespace wave::runner
