#include "runner/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <tuple>

#include "common/units.h"
#include "core/solver.h"
#include "obs/metrics.h"
#include "runner/thread_pool.h"
#include "wave/context.h"
#include "workloads/registry.h"
#include "workloads/wavefront.h"

namespace wave::runner {

void model_metric_values(const core::ModelResult& res, double* out) {
  const core::TimeSplit step = res.timestep_split();
  out[0] = res.iteration.total;
  out[1] = res.iteration.comm;
  out[2] = step.total;
  out[3] = step.comm;
  out[4] = res.fill.total;
  out[5] = res.fill.comm;
}

Metrics model_metrics_from(const core::ModelResult& res) {
  // Built in place from the literals: an initializer_list would build each
  // name and then copy it, two allocations per name too long for the
  // short-string buffer.
  double values[kModelMetricNames.size()];
  model_metric_values(res, values);
  Metrics out;
  out.reserve(kModelMetricNames.size());
  for (std::size_t k = 0; k < kModelMetricNames.size(); ++k)
    out.emplace_back(kModelMetricNames[k], values[k]);
  return out;
}

Metrics model_metrics(const wave::Context& ctx, const Scenario& s) {
  const core::Solver solver(s.app, s.effective_machine(),
                            ctx.comm_model_registry());
  return model_metrics_from(solver.evaluate(s.grid));
}

namespace {

/// The machine a scenario's DES runs on.
workloads::SimMachine sim_machine_of(const wave::Context& ctx,
                                     const Scenario& s) {
  return workloads::sim_machine(s.effective_machine(),
                                ctx.comm_model_registry());
}

}  // namespace

Metrics sim_metrics(const wave::Context& ctx, const Scenario& s) {
  const workloads::SimOutput res =
      workloads::simulate_wavefront(s.app, sim_machine_of(ctx, s), s.grid,
                                    s.iterations, {s.metrics, s.trace});
  return {{"sim_iter_us", res.time_us},
          {"sim_makespan_us", res.makespan_us},
          {"sim_events", static_cast<double>(res.events)},
          {"sim_messages", static_cast<double>(res.messages)},
          {"sim_bus_wait_us", res.bus_wait_us},
          {"sim_nic_wait_us", res.nic_wait_us},
          {"sim_mpi_busy_us", res.mpi_busy_us}};
}

workloads::WorkloadInputs workload_inputs(const Scenario& s) {
  workloads::WorkloadInputs in;
  // A scenario that never set an application keeps the workload
  // subsystem's canonical default instead of handing every workload an
  // empty (invalid) data grid.
  if (s.app.nx > 0.0) in.app = s.app;
  in.grid = s.grid;
  in.iterations = s.iterations;
  in.observers = {s.metrics, s.trace};
  in.params = s.params;
  return in;
}

Metrics workload_metrics(const wave::Context& ctx, const Scenario& s) {
  const auto workload = workloads::get_workload(
      ctx.workload_registry(), s.workload.empty() ? "wavefront" : s.workload);
  const workloads::WorkloadInputs in = workload_inputs(s);
  const core::MachineConfig machine = s.effective_machine();
  Metrics out;
  if (s.engine == Engine::Model) {
    const workloads::ModelOutput model =
        workload->predict(machine, ctx.comm_model_registry(), in);
    out = {{"model_us", model.time_us}, {"model_comm_us", model.comm_us}};
    out.insert(out.end(), model.extra.begin(), model.extra.end());
  } else {
    const workloads::SimOutput sim =
        workload->simulate(machine, ctx.comm_model_registry(), in);
    out = {{"sim_us", sim.time_us},
           {"sim_makespan_us", sim.makespan_us},
           {"sim_events", static_cast<double>(sim.events)},
           {"sim_messages", static_cast<double>(sim.messages)},
           {"sim_bus_wait_us", sim.bus_wait_us},
           {"sim_nic_wait_us", sim.nic_wait_us},
           {"sim_mpi_busy_us", sim.mpi_busy_us}};
    out.insert(out.end(), sim.extra.begin(), sim.extra.end());
  }
  return out;
}

Metrics workload_model_vs_sim_metrics(const wave::Context& ctx,
                                      const Scenario& s) {
  const auto workload = workloads::get_workload(
      ctx.workload_registry(), s.workload.empty() ? "wavefront" : s.workload);
  const workloads::ValidationReport report = workload->validate(
      s.effective_machine(), ctx.comm_model_registry(), workload_inputs(s));
  Metrics out = {{"model_us", report.model.time_us},
                 {"model_comm_us", report.model.comm_us},
                 {"sim_us", report.sim.time_us},
                 {"err_pct", 100.0 * report.rel_error},
                 {"within_tol", report.ok ? 1.0 : 0.0}};
  out.insert(out.end(), report.model.extra.begin(), report.model.extra.end());
  out.insert(out.end(), report.sim.extra.begin(), report.sim.extra.end());
  return out;
}

Metrics evaluate_scenario(const wave::Context& ctx, const Scenario& s) {
  // The wavefront default keeps the original metric names (and therefore
  // the pinned record fixtures of tests/data/) byte-identical; any other
  // registered workload evaluates through the registry contract.
  if (!s.workload.empty() && s.workload != "wavefront")
    return workload_metrics(ctx, s);
  return s.engine == Engine::Model ? model_metrics(ctx, s)
                                   : sim_metrics(ctx, s);
}

Metrics model_vs_sim_metrics(const wave::Context& ctx, const Scenario& s) {
  Metrics out = model_metrics(ctx, s);
  Metrics sim = sim_metrics(ctx, s);
  const double model_iter = out.front().second;
  const double sim_iter = sim.front().second;
  out.insert(out.end(), sim.begin(), sim.end());
  out.emplace_back("err_pct",
                   100.0 * common::relative_error(model_iter, sim_iter));
  return out;
}

// ---- BatchRunner ------------------------------------------------------

namespace {

/// The most points in one batch unit. A unit holds the points of one app
/// and grid, whose distinct fills evaluate_group runs side by side; the
/// cap splits a long machine-parameter sweep at one grid into units that
/// spread over the pool. Sixteen holds the 15 points of five machines
/// under three backends, about nine distinct fills.
constexpr std::size_t kMaxUnitPoints = 16;

/// Largest grid first, then the unit's identity: members with equal keys
/// share an app and a grid, so their fills share n x m.
auto unit_key(const core::BatchPoint& p) {
  return std::tuple(-static_cast<long long>(p.grid.size()), p.app,
                    p.grid.n(), p.grid.m());
}

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The sink of run(points) and run(points, fn): one RunRecord per
/// scenario, scalar points evaluated by `fn`.
class RecordSink final : public BatchSink {
 public:
  RecordSink(const std::vector<Scenario>& points, const BatchRunner::PointFn& fn)
      : points_(points), fn_(fn), records_(points.size()) {}

  void model(std::size_t point, const core::ModelResult& res) override {
    RunRecord& r = start(point);
    r.metrics = model_metrics_from(res);
  }

  void scalar(std::size_t point) override {
    // The latency is taken only when a registry is attached, so
    // unobserved sweeps pay one pointer test per point.
    const Scenario& s = points_[point];
    RunRecord& r = start(point);
    if (s.metrics == nullptr) {
      r.metrics = fn_(s);
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    r.metrics = fn_(s);
    s.metrics->histogram("runner_point_latency_us").observe(elapsed_us(t0));
  }

  void share(std::size_t point, std::size_t run) override {
    start(point).metrics = records_[run].metrics;
  }

  obs::MetricsRegistry* observer(std::size_t point) const override {
    return points_[point].metrics;
  }

  std::vector<RunRecord> take() { return std::move(records_); }

 private:
  RunRecord& start(std::size_t point) {
    RunRecord& r = records_[point];
    r.index = points_[point].index;
    r.labels = points_[point].labels;
    return r;
  }

  const std::vector<Scenario>& points_;
  const BatchRunner::PointFn& fn_;
  std::vector<RunRecord> records_;
};

}  // namespace

Route route(Engine engine, const std::string& workload, bool observed) {
  if (!workload.empty() && workload != "wavefront") return Route::kScalar;
  if (engine == Engine::Model) return Route::kBatched;
  return observed ? Route::kScalar : Route::kSharedSim;
}

BatchPlan::BatchPlan(const wave::Context& ctx)
    : eval_(ctx.comm_model_registry()) {}

void BatchPlan::add_batched(std::size_t point, const core::BatchPoint& p) {
  members_.push_back({point, p});
}

void BatchPlan::add_shared_sim(std::size_t point, SimKey key) {
  simulates_ = true;
  const auto same = std::find_if(runs_.begin(), runs_.end(),
                                 [&](const auto& run) { return run.first == key; });
  if (same != runs_.end()) {
    sharers_.emplace_back(point, same->second);
    return;
  }
  runs_.emplace_back(std::move(key), point);
  scalar_.push_back(point);
}

void BatchPlan::add_scalar(std::size_t point, bool simulates) {
  simulates_ = simulates_ || simulates;
  scalar_.push_back(point);
}

std::size_t BatchRunner::chunk_for(std::size_t units, bool simulates) const {
  if (simulates) return 1;
  const auto threads =
      static_cast<std::size_t>(ThreadPool(options_.threads).threads());
  // Capped so late-start imbalance stays bounded on small grids.
  return std::clamp<std::size_t>(units / (threads * 16 + 1), 1, 4096);
}

void BatchRunner::run(BatchPlan& plan, BatchSink& sink) const {
  // Batch units are the runs of equal unit keys, largest grid first, cut
  // into pieces of at most kMaxUnitPoints; unit u spans
  // members[unit_begin[u] .. unit_begin[u + 1]) and the same slice of
  // `batch`. They follow the scalar units in dispatch order.
  std::vector<BatchPlan::Member>& members = plan.members_;
  std::stable_sort(members.begin(), members.end(),
                   [](const BatchPlan::Member& a, const BatchPlan::Member& b) {
                     return unit_key(a.batch) < unit_key(b.batch);
                   });
  std::vector<core::BatchPoint> batch(members.size());
  std::vector<std::size_t> unit_begin;
  for (std::size_t k = 0; k < members.size(); ++k) {
    if (k == 0 || unit_key(members[k].batch) != unit_key(members[k - 1].batch) ||
        k - unit_begin.back() == kMaxUnitPoints)
      unit_begin.push_back(k);
    batch[k] = members[k].batch;
  }
  unit_begin.push_back(members.size());
  const std::vector<std::size_t>& scalar = plan.scalar_;
  const std::size_t units = scalar.size() + unit_begin.size() - 1;

  const core::BatchEval& eval = plan.eval_;
  const ThreadPool pool(options_.threads);
  const std::size_t chunk = chunk_for(units, plan.simulates_);
  pool.for_each_chunk(units, chunk, [&](std::size_t u) {
    if (u < scalar.size()) {
      sink.scalar(scalar[u]);
      return;
    }
    const std::size_t begin = unit_begin[u - scalar.size()];
    const std::size_t size = unit_begin[u - scalar.size() + 1] - begin;
    const std::span<const BatchPlan::Member> unit(members.data() + begin, size);
    const bool observed = std::any_of(
        unit.begin(), unit.end(), [&](const BatchPlan::Member& m) {
          return sink.observer(m.point) != nullptr;
        });
    const auto t0 = observed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
    // Workspace per worker thread, reused across units and runs.
    thread_local core::BatchScratch scratch;
    thread_local std::vector<core::ModelResult> results;
    results.resize(size);
    eval.evaluate_group({batch.data() + begin, size}, scratch, results);
    for (std::size_t k = 0; k < size; ++k) sink.model(unit[k].point, results[k]);
    if (!observed) return;
    // One evaluation served the whole unit: each point reports its share.
    const double us = elapsed_us(t0) / static_cast<double>(size);
    for (const BatchPlan::Member& m : unit)
      if (obs::MetricsRegistry* registry = sink.observer(m.point))
        registry->histogram("runner_point_latency_us").observe(us);
  });
  for (const auto& [point, run] : plan.sharers_) sink.share(point, run);
}

std::vector<RunRecord> BatchRunner::run(const std::vector<Scenario>& points,
                                        const PointFn& fn) const {
  BatchPlan plan(*ctx_);
  for (std::size_t i = 0; i < points.size(); ++i)
    plan.add_scalar(i, points[i].engine == Engine::Simulation);
  RecordSink sink(points, fn);
  run(plan, sink);
  return sink.take();
}

std::vector<RunRecord> BatchRunner::run(
    const std::vector<Scenario>& points) const {
  const wave::Context& ctx = *ctx_;
  // Compile the analytic wavefront points into one shared plan: each
  // unique machine resolves its comm backend once, each unique app
  // validates and derives its sweep terms once. Runs on the calling
  // thread so plan errors surface before any worker starts.
  //
  // Unobserved DES points with equal simulation inputs share one run: the
  // first is a scalar unit, each later one copies its metrics. Keying
  // validates the machine and resolves its backend here too.
  BatchPlan plan(ctx);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Scenario& s = points[i];
    switch (route(s.engine, s.workload,
                  s.metrics != nullptr || s.trace != nullptr)) {
      case Route::kBatched:
        plan.add_batched(i, {plan.eval().add_app(s.app),
                             plan.eval().add_machine(s.effective_machine()),
                             s.grid});
        break;
      case Route::kSharedSim:
        plan.add_shared_sim(i, {s.app, s.grid.n(), s.grid.m(), s.iterations,
                                sim_machine_of(ctx, s)});
        break;
      case Route::kScalar:
        plan.add_scalar(i, s.engine == Engine::Simulation);
        break;
    }
  }
  const PointFn fn = [&ctx](const Scenario& s) {
    return evaluate_scenario(ctx, s);
  };
  RecordSink sink(points, fn);
  run(plan, sink);
  return sink.take();
}

std::vector<RunRecord> BatchRunner::run(const SweepGrid& grid,
                                        const PointFn& fn) const {
  return run(grid.points(), fn);
}

std::vector<RunRecord> BatchRunner::run(const SweepGrid& grid) const {
  return run(grid.points());
}

}  // namespace wave::runner
