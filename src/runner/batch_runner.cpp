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

Metrics model_metrics_from(const core::ModelResult& res) {
  // Built in place from the literals: an initializer_list would build each
  // name and then copy it, two allocations per name too long for the
  // short-string buffer.
  const core::TimeSplit step = res.timestep_split();
  Metrics out;
  out.reserve(6);
  out.emplace_back("model_iter_us", res.iteration.total);
  out.emplace_back("model_iter_comm_us", res.iteration.comm);
  out.emplace_back("model_timestep_us", step.total);
  out.emplace_back("model_timestep_comm_us", step.comm);
  out.emplace_back("model_fill_us", res.fill.total);
  out.emplace_back("model_fill_comm_us", res.fill.comm);
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

/// Evaluates one point, recording its wall-clock latency into the point's
/// attached registry (if any) as `runner_point_latency_us`. The timing is
/// taken only when a registry is attached, so unobserved sweeps pay one
/// pointer test per point.
template <typename Eval>
void timed_point(const Scenario& s, RunRecord& r, Eval eval) {
  r.index = s.index;
  r.labels = s.labels;
  if (s.metrics == nullptr) {
    r.metrics = eval();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  r.metrics = eval();
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  s.metrics->histogram("runner_point_latency_us").observe(us);
}

}  // namespace

int BatchRunner::threads() const { return ThreadPool(options_.threads).threads(); }

namespace {

/// The chunk for `units` dispatch units: 1 when any unit `simulates` (a
/// DES point), else ~16 dispatches per thread, capped so late-start
/// imbalance stays bounded on small grids.
std::size_t auto_chunk(int threads, std::size_t units, bool simulates) {
  if (simulates) return 1;
  const auto nthreads = static_cast<std::size_t>(threads);
  return std::clamp<std::size_t>(units / (nthreads * 16 + 1), 1, 4096);
}

}  // namespace

std::size_t BatchRunner::chunk_for(const std::vector<Scenario>& points) const {
  const bool simulates =
      std::any_of(points.begin(), points.end(), [](const Scenario& s) {
        return s.engine == Engine::Simulation;
      });
  return auto_chunk(threads(), points.size(), simulates);
}

std::vector<RunRecord> BatchRunner::run(const std::vector<Scenario>& points,
                                        const PointFn& fn) const {
  std::vector<RunRecord> records(points.size());
  const ThreadPool pool(options_.threads);
  pool.for_each_chunk(points.size(), chunk_for(points), [&](std::size_t i) {
    const Scenario& s = points[i];
    timed_point(points[i], records[i], [&] { return fn(s); });
  });
  return records;
}

namespace {

/// A point the default run() can evaluate through the batch solver: the
/// analytic engine on the wavefront pipeline (the pair model_metrics
/// serves). Everything else — DES points, registry workloads — keeps the
/// scalar evaluators.
bool batchable(const Scenario& s) {
  return s.engine == Engine::Model &&
         (s.workload.empty() || s.workload == "wavefront");
}

/// The most points in one batch unit. A unit holds the points of one app
/// and grid, whose distinct fills evaluate_group runs side by side; the
/// cap splits a long machine-parameter sweep at one grid into units that
/// spread over the pool. Sixteen holds the 15 points of five machines
/// under three backends, about nine distinct fills.
constexpr std::size_t kMaxUnitPoints = 16;

/// A batchable point and the unit it joins: points with equal keys share
/// an app and a grid, so their fills share n x m.
struct Member {
  std::size_t index;  ///< into the scenario list
  core::BatchPoint point;

  /// Largest grid first, then the unit's identity.
  auto unit_key() const {
    return std::tuple(-static_cast<long long>(point.grid.size()), point.app,
                      point.grid.n(), point.grid.m());
  }
};

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

/// A DES point whose run others may share: the wavefront simulation with
/// no observer attached (a registry or span capture sees one run, so an
/// observed point always simulates on its own).
bool shareable(const Scenario& s) {
  return s.engine == Engine::Simulation &&
         (s.workload.empty() || s.workload == "wavefront") &&
         s.metrics == nullptr && s.trace == nullptr;
}

}  // namespace

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
  core::BatchEval plan(ctx.comm_model_registry());
  std::vector<Member> members;
  std::vector<std::size_t> scalar;  // every other point, a unit of its own
  std::vector<std::pair<SimKey, std::size_t>> runs;  // key, point
  std::vector<std::pair<std::size_t, std::size_t>> sharers;  // point, run's
  bool simulates = false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Scenario& s = points[i];
    if (!batchable(s)) {
      simulates = simulates || s.engine == Engine::Simulation;
      if (shareable(s)) {
        SimKey key{s.app, s.grid.n(), s.grid.m(), s.iterations,
                   sim_machine_of(ctx, s)};
        const auto same = std::find_if(
            runs.begin(), runs.end(),
            [&](const auto& run) { return run.first == key; });
        if (same != runs.end()) {
          sharers.emplace_back(i, same->second);
          continue;
        }
        runs.emplace_back(std::move(key), i);
      }
      scalar.push_back(i);
      continue;
    }
    members.push_back({i,
                       {plan.add_app(s.app),
                        plan.add_machine(s.effective_machine()), s.grid}});
  }

  // Batch units are the runs of equal unit keys, largest grid first, cut
  // into pieces of at most kMaxUnitPoints; unit u spans
  // members[unit_begin[u] .. unit_begin[u + 1]) and the same slice of
  // `batch`. They follow the scalar units in dispatch order.
  std::stable_sort(members.begin(), members.end(),
                   [](const Member& a, const Member& b) {
                     return a.unit_key() < b.unit_key();
                   });
  std::vector<core::BatchPoint> batch(members.size());
  std::vector<std::size_t> unit_begin;
  for (std::size_t k = 0; k < members.size(); ++k) {
    if (k == 0 || members[k].unit_key() != members[k - 1].unit_key() ||
        k - unit_begin.back() == kMaxUnitPoints)
      unit_begin.push_back(k);
    batch[k] = members[k].point;
  }
  unit_begin.push_back(members.size());
  const std::size_t units = scalar.size() + unit_begin.size() - 1;

  std::vector<RunRecord> records(points.size());
  const ThreadPool pool(options_.threads);
  const std::size_t chunk = auto_chunk(pool.threads(), units, simulates);
  pool.for_each_chunk(units, chunk, [&](std::size_t u) {
    if (u < scalar.size()) {
      const Scenario& s = points[scalar[u]];
      timed_point(s, records[scalar[u]],
                  [&] { return evaluate_scenario(ctx, s); });
      return;
    }
    const std::size_t begin = unit_begin[u - scalar.size()];
    const std::size_t size = unit_begin[u - scalar.size() + 1] - begin;
    const std::span<const Member> unit(members.data() + begin, size);
    const bool observed =
        std::any_of(unit.begin(), unit.end(), [&](const Member& m) {
          return points[m.index].metrics != nullptr;
        });
    const auto t0 = observed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
    // Workspace per worker thread, reused across units and runs.
    thread_local core::BatchScratch scratch;
    thread_local std::vector<core::ModelResult> results;
    results.resize(size);
    plan.evaluate_group({batch.data() + begin, size}, scratch, results);
    for (std::size_t k = 0; k < size; ++k) {
      const Scenario& s = points[unit[k].index];
      RunRecord& r = records[unit[k].index];
      r.index = s.index;
      r.labels = s.labels;
      r.metrics = model_metrics_from(results[k]);
    }
    if (!observed) return;
    // One evaluation served the whole unit: each point reports its share.
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      static_cast<double>(size);
    for (const Member& m : unit)
      if (points[m.index].metrics != nullptr)
        points[m.index].metrics->histogram("runner_point_latency_us")
            .observe(us);
  });
  for (const auto& [point, run] : sharers) {
    records[point].index = points[point].index;
    records[point].labels = points[point].labels;
    records[point].metrics = records[run].metrics;
  }
  return records;
}

std::vector<RunRecord> BatchRunner::run(const SweepGrid& grid,
                                        const PointFn& fn) const {
  return run(grid.points(), fn);
}

std::vector<RunRecord> BatchRunner::run(const SweepGrid& grid) const {
  return run(grid.points());
}

}  // namespace wave::runner
