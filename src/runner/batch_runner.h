// Parallel batch execution of scenario sweeps.
//
// BatchRunner maps a point function over the scenarios of a sweep on a
// thread pool. Analytic Solver::evaluate points and independent
// single-threaded DES simulate_wavefront runs both parallelize at the
// scenario level; results land in slots indexed by point, and any
// randomness comes from the point's own derived seed, so the record set is
// bit-identical at any thread count.
//
// Every run goes through one unit scheduler, run(BatchPlan&, BatchSink&).
// A BatchPlan is a compiled batch: the analytic wavefront points as
// members of one shared batch-solver plan (core/batch_solver.h), whose
// machine backends and app terms resolve once per unique axis value, and
// every other point as a scalar unit. A BatchSink stores what the units
// produce and evaluates the scalar points. Batched members are grouped
// into units — points sharing an app and a grid, at most 16 to a unit —
// and each unit is one evaluate_group() call, which runs the
// pipeline-fill recurrence once per distinct input: sweep points that
// differ only in a backend that prices the fill alike share one fill,
// and on thin grids the distinct fills run side by side, one per vector
// lane. The cap keeps a long sweep of machine parameters at one grid
// spread over the pool. Units go scalar points first, then largest grid
// first. Unobserved wavefront DES points with equal SimKeys (say, one
// machine under two backends that price no rendezvous sync) share one
// run.
//
// Two callers compile plans, and both route each point by route().
// run(points) compiles a scenario list point by point and writes
// RunRecords (Optimize, the bench drivers, EvalService::warm).
// wave::Study::run compiles its plan per axis level, with no scenario per
// point, and writes columns. run(points, fn) makes every point a scalar
// unit of `fn`. The records are byte-identical to the scalar path — the
// batch solver's correctness contract — so the default run() always
// routes; run(points, evaluate_scenario) is the scalar reference.
#pragma once

#include <array>
#include <functional>
#include <string>
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

/// model_metrics_from's names, in order, and its values written to
/// out[0 .. kModelMetricNames.size()).
inline constexpr std::array<const char*, 6> kModelMetricNames = {
    "model_iter_us",          "model_iter_comm_us", "model_timestep_us",
    "model_timestep_comm_us", "model_fill_us",      "model_fill_comm_us"};
void model_metric_values(const core::ModelResult& res, double* out);

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

/// The arguments sim_metrics hands simulate_wavefront, bar the inert
/// observers. Two points with equal keys simulate the same event stream
/// and get bit-identical metrics, so they can share one run.
struct SimKey {
  core::AppParams app;
  int n = 0;
  int m = 0;
  int iterations = 0;
  workloads::SimMachine machine;

  bool operator==(const SimKey&) const = default;
};

/// How the default evaluation (evaluate_scenario) runs a point in a
/// BatchPlan: through the batch solver (the analytic engine on the
/// wavefront pipeline), as a wavefront DES run that points with an equal
/// SimKey share (no observer attached: a registry or span capture sees one
/// run, so an observed point simulates on its own), or as a scalar unit
/// (everything else). Both plan compilers — run(points) and
/// wave::Study::run — route by it.
enum class Route { kBatched, kSharedSim, kScalar };
Route route(Engine engine, const std::string& workload, bool observed);

/// A compiled batch: what BatchRunner's unit scheduler runs. Points are
/// named by ids that the caller's BatchSink understands (a position in a
/// scenario list, a Study's cartesian index). Each point is added once.
class BatchPlan {
 public:
  explicit BatchPlan(const wave::Context& ctx);

  /// The batch-solver plan that batched points' app and machine ids index.
  core::BatchEval& eval() { return eval_; }

  /// A point evaluated through the batch solver.
  void add_batched(std::size_t point, const core::BatchPoint& p);
  /// An unobserved wavefront DES point: a scalar unit, unless an earlier
  /// point had an equal key; then the sink copies that point's metrics.
  void add_shared_sim(std::size_t point, SimKey key);
  /// A point the sink evaluates on its own; `simulates` marks a DES
  /// point, which makes the scheduler claim one unit per dispatch.
  void add_scalar(std::size_t point, bool simulates);

 private:
  friend class BatchRunner;

  struct Member {
    std::size_t point;
    core::BatchPoint batch;
  };

  core::BatchEval eval_;
  std::vector<Member> members_;
  std::vector<std::size_t> scalar_;  // points, a unit each
  std::vector<std::pair<SimKey, std::size_t>> runs_;  // key, point
  std::vector<std::pair<std::size_t, std::size_t>> sharers_;  // point, run's
  bool simulates_ = false;
};

/// Where the unit scheduler delivers a plan's points.
class BatchSink {
 public:
  /// Stores a batched point's model result. Called on a worker thread,
  /// once per batched point.
  virtual void model(std::size_t point, const core::ModelResult& res) = 0;
  /// Evaluates and stores a scalar point. Called on a worker thread, once
  /// per scalar point.
  virtual void scalar(std::size_t point) = 0;
  /// Gives `point` the metrics of the scalar point `run`. Called on the
  /// scheduling thread after every unit has finished.
  virtual void share(std::size_t point, std::size_t run) = 0;
  /// The registry that records `point`'s latency, or nullptr. A unit with
  /// an observed member gives each observed member an equal share of the
  /// unit's wall time as `runner_point_latency_us`.
  virtual obs::MetricsRegistry* observer(std::size_t point) const = 0;

 protected:
  ~BatchSink() = default;  // never deleted through the interface
};

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

  /// Units claimed per pool dispatch by the unit scheduler, for a plan of
  /// `units` units. Plans with no DES point get a chunk sized so each
  /// thread sees ~16 dispatches (cheap microsecond units stop paying one
  /// atomic round-trip each); a plan with a DES point (`simulates`) gets
  /// chunk = 1 (points are seconds-long, dispatch overhead is noise and
  /// fine-grained claiming load-balances best). Chunking never changes
  /// the records, only the execution schedule (tests/test_runner.cpp pins
  /// this).
  std::size_t chunk_for(std::size_t units, bool simulates) const;

  /// The unit scheduler: runs every unit of `plan` on the pool and
  /// delivers its points to `sink`. Reorders the plan's members.
  void run(BatchPlan& plan, BatchSink& sink) const;

  /// Runs `fn` over every point; records come back in point order
  /// regardless of the execution schedule. Explicit-PointFn runs never
  /// batch-route (the caller owns evaluation).
  std::vector<RunRecord> run(const std::vector<Scenario>& points,
                             const PointFn& fn) const;

  /// Default evaluation: compiles the analytic wavefront points into one
  /// BatchEval plan, evaluates them in shared-fill units and routes
  /// everything else through evaluate_scenario. Wavefront DES points with
  /// no registry or span capture attached run once per distinct SimKey,
  /// built by the sim_machine call sim_metrics makes; the others copy
  /// that run's metrics. The records equal run(points,
  /// evaluate_scenario)'s byte for byte. Plan compilation and DES keying
  /// validate every batched point's app and every shared DES point's
  /// machine eagerly, so a bad axis value throws here rather than from a
  /// worker thread. A registry attached to a point records the point's
  /// `runner_point_latency_us` once.
  std::vector<RunRecord> run(const std::vector<Scenario>& points) const;
  std::vector<RunRecord> run(const SweepGrid& grid, const PointFn& fn) const;
  std::vector<RunRecord> run(const SweepGrid& grid) const;

 private:
  const wave::Context* ctx_;
  Options options_;
};

}  // namespace wave::runner
