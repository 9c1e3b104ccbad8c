// Macro performance sweep: the measured perf gauge of the repository.
//
// It needs no benchmark library — it times representative workloads with
// steady_clock and reports throughput, so it builds and runs everywhere
// (including CI, which gates on it via tools/check_perf.sh):
//
//   engine     raw engine overhead: a self-rescheduling event chain
//              (events/sec through sim::Engine alone);
//   sim        the DES hot path end-to-end: a wavefront grid executed
//              serially through the batch runner (events/sec across every
//              simulated protocol step — the headline number);
//   model      a large analytic sweep through the chunked batch runner
//              with batch routing OFF — every point pays the scalar
//              Solver (points/sec — the pre-batch reference);
//   model:batch  the same grid through the default batch-routed runner:
//              one batch-solver plan for the whole sweep, backends and
//              app terms hoisted per unique axis value (points/sec plus
//              the speedup over the scalar row — the headline batch
//              number, gated by tools/check_perf.sh);
//   workloads  every registered workload's DES path run serially
//              (events/sec per workload — how each rank-program shape
//              loads the fabric; registry-driven, so a newly registered
//              workload shows up here without touching this file);
//   service    the facade's memoizing EvalService: cold analytic
//              evaluations/sec vs cache-hit lookups/sec on the same query
//              mix, plus the hit speedup (the production-traffic number —
//              repeated queries must be O(lookup), >= 10x a model solve);
//   optimize   the auto-configurator's cost model: a fixed candidate set
//              scored through the compiled batch plan vs through the
//              per-point scalar Solver (candidates/sec both ways plus
//              the speedup — gated by tools/check_perf.sh at >= 10x),
//              and one end-to-end seeded beam search (wall seconds,
//              candidates evaluated) through wave::Optimize;
//   obs        instrumentation overhead: the identical serial wavefront
//              DES run plain, with the always-on metrics registry
//              attached (gated by tools/check_perf.sh at >= 0.90x the
//              plain rate — the near-zero-cost claim), and with the
//              opt-in span tracer on top (reported, not gated: full
//              timeline capture is a diagnostic mode).
//
// Flags: --quick shrinks every section for CI smoke runs; --threads N sets
// the model section's worker count (the sim section is measured serially
// so events/sec gauges one core's hot path); --out=FILE writes the flat
// JSON consumed by tools/run_perf.sh and tools/check_perf.sh.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/batch_solver.h"
#include "core/benchmarks.h"
#include "core/solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimize/search_space.h"
#include "runner/reference_grids.h"
#include "runner/runner.h"
#include "sim/engine.h"
#include "wave/wave.h"
#include "workloads/registry.h"

using namespace wave;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Raw engine throughput: `chains` interleaved self-rescheduling events.
struct EngineResult {
  double events = 0.0;
  double wall_s = 0.0;
};

EngineResult engine_section(long long total_events) {
  sim::Engine engine;
  constexpr int kChains = 64;  // interleave so the heap has depth
  long long remaining = total_events;
  const auto start = std::chrono::steady_clock::now();
  struct Chain {
    sim::Engine* engine;
    long long* remaining;
    double period;
    void operator()() const {
      if (--*remaining > 0) engine->after(period, *this);
    }
  };
  for (int c = 0; c < kChains; ++c) {
    engine.at(0.0, Chain{&engine, &remaining, 1.0 + 0.01 * c});
  }
  engine.run();
  EngineResult res;
  res.events = static_cast<double>(engine.events_processed());
  res.wall_s = seconds_since(start);
  return res;
}

struct SectionResult {
  double points = 0.0;
  double events = 0.0;
  double wall_s = 0.0;
};

/// The DES section: wavefront simulations over a processor axis, serial.
SectionResult sim_section(const wave::Context& ctx, bool quick) {
  core::benchmarks::Sweep3dConfig s3;
  s3.nx = s3.ny = s3.nz = 96;

  // The processor axis reaches toward the paper's system sizes (Fig 6
  // validates at 6400-65536 ranks): the large-P points are where a
  // validation sweep actually spends its time, and where heap and
  // pool behaviour is exercised at depth.
  runner::SweepGrid grid;
  grid.base().app = core::benchmarks::sweep3d(s3);
  grid.base().machine = core::MachineConfig::xt4_dual_core();
  grid.base().engine = runner::Engine::Simulation;
  grid.processors(quick ? std::vector<int>{64, 256}
                        : std::vector<int>{64, 256, 1024, 2048, 4096});
  grid.values("Htile", {1, 2},
              [](runner::Scenario& s, double h) { s.app.htile = h; });

  const auto points = grid.points();
  const runner::BatchRunner serial{ctx, runner::BatchRunner::Options(1)};
  const auto start = std::chrono::steady_clock::now();
  const auto records = serial.run(points);
  SectionResult res;
  res.wall_s = seconds_since(start);
  res.points = static_cast<double>(records.size());
  for (const auto& r : records) res.events += r.metric("sim_events");
  return res;
}

/// The analytic grid both model sections share: Solver::evaluate runs the
/// r2 fill recurrence over all P cells, so the axis stays in the
/// cheap-point regime (P <= 4096) — points/sec here gauges sweep
/// orchestration plus O(P)-bounded model evaluations.
runner::SweepGrid model_grid(bool quick) {
  core::benchmarks::Sweep3dConfig s3;
  core::benchmarks::ChimaeraConfig chim;

  std::vector<int> procs;
  const int step = quick ? 40 : 4;
  for (int p = 64; p <= 4'096; p += step) procs.push_back(p);

  runner::SweepGrid grid;
  grid.apps({{"Sweep3D", core::benchmarks::sweep3d(s3)},
             {"Chimaera", core::benchmarks::chimaera(chim)}});
  grid.machines({{"XT4 dual", core::MachineConfig::xt4_dual_core()}});
  grid.processors(procs);
  grid.values("Htile", {1, 2, 5, 10},
              [](runner::Scenario& s, double h) { s.app.htile = h; });
  return grid;
}

/// The analytic section, scalar or batch-routed on the same grid. The
/// scalar run pins Options::batch = false so it keeps measuring the
/// per-point Solver path the batch speedup is quoted against.
SectionResult model_section(const wave::Context& ctx, bool quick,
                            int threads, bool batch_route) {
  const auto points = model_grid(quick).points();
  runner::BatchRunner::Options options(threads);
  options.batch = batch_route;
  const runner::BatchRunner batch{ctx, options};
  const auto start = std::chrono::steady_clock::now();
  const auto records = batch.run(points);
  SectionResult res;
  res.wall_s = seconds_since(start);
  res.points = static_cast<double>(records.size());
  return res;
}

/// One registered workload's DES throughput, measured serially.
struct WorkloadPerf {
  std::string name;
  double events = 0.0;
  double wall_s = 0.0;
};

/// Runs every registered workload's simulate() path on the dual-core XT4
/// with per-workload knobs sized so each run executes enough events to
/// time (the cheap two-rank/collective shapes get more repetitions).
std::vector<WorkloadPerf> workloads_section(const wave::Context& ctx,
                                            bool quick) {
  const core::MachineConfig machine = core::MachineConfig::xt4_dual_core();
  std::vector<WorkloadPerf> out;
  for (const auto& info : ctx.workloads()) {
    const auto workload =
        workloads::get_workload(ctx.workload_registry(), info.name);
    workloads::WorkloadInputs in;
    in.grid = wave::topo::closest_to_square(quick ? 16 : 64);
    in.iterations = quick ? 1 : 2;
    if (info.name == "pingpong") in.params["reps"] = quick ? 2000 : 20000;
    if (info.name == "halo2d") in.params["phases"] = quick ? 32 : 128;
    if (info.name == "allreduce-storm")
      in.params["count"] = quick ? 64 : 256;
    const auto start = std::chrono::steady_clock::now();
    const workloads::SimOutput res =
        workload->simulate(machine, ctx.comm_model_registry(), in);
    WorkloadPerf perf;
    perf.name = info.name;
    perf.events = static_cast<double>(res.events);
    perf.wall_s = seconds_since(start);
    out.push_back(perf);
  }
  return out;
}

double rate(double amount, double wall_s) {
  return wall_s > 0.0 ? amount / wall_s : 0.0;
}

/// Instrumentation overhead: the identical serial wavefront scenario run
/// three ways — plain, with a obs::MetricsRegistry attached (the
/// always-on production surface: engine counters published post-run,
/// latency histograms), and with metrics plus a obs::SpanCapture
/// recording every compute/send/recv/wait span (the opt-in --trace-out
/// deep-dive, which pays a bounded push_back per protocol step). The
/// determinism contract makes all three runs event-for-event identical,
/// so events/sec is a clean overhead gauge. check_perf.sh gates the
/// metrics run at >= 0.90x plain within the same file; the traced rate
/// is reported (and documented in docs/OBSERVABILITY.md) but not gated —
/// full timeline capture is a diagnostic mode, not an always-on cost.
struct ObsPerf {
  double events = 0.0;
  double plain_wall_s = 0.0;
  double metrics_wall_s = 0.0;
  double traced_wall_s = 0.0;
  std::uint64_t spans = 0;
};

ObsPerf obs_section(const wave::Context& ctx, bool quick) {
  const auto workload =
      workloads::get_workload(ctx.workload_registry(), "wavefront");
  const core::MachineConfig machine = core::MachineConfig::xt4_dual_core();
  const int side = quick ? 16 : 32;
  ObsPerf perf;
  enum Mode { kPlain, kMetrics, kTraced };
  // Best-of-3 per mode: the gate compares two ~tens-of-ms runs from the
  // same process, so one scheduler hiccup on either side would dominate a
  // single-shot ratio. The minimum wall time is the least-noisy estimate
  // of each mode's true cost.
  constexpr int kReps = 3;
  for (const Mode mode : {kPlain, kMetrics, kTraced}) {
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      obs::MetricsRegistry registry;
      obs::SpanCapture capture;
      workloads::WorkloadInputs in;
      in.grid = wave::topo::Grid(side, side);
      in.iterations = 1;
      if (mode != kPlain) in.observers.metrics = &registry;
      if (mode == kTraced) in.observers.trace = &capture;
      const auto start = std::chrono::steady_clock::now();
      const workloads::SimOutput res =
          workload->simulate(machine, ctx.comm_model_registry(), in);
      const double wall = seconds_since(start);
      if (rep == 0 || wall < best) best = wall;
      perf.events = static_cast<double>(res.events);
      if (mode == kTraced) perf.spans = capture.total_spans();
    }
    switch (mode) {
      case kPlain: perf.plain_wall_s = best; break;
      case kMetrics: perf.metrics_wall_s = best; break;
      case kTraced: perf.traced_wall_s = best; break;
    }
  }
  return perf;
}

/// The auto-configurator's cost model: every candidate of a pinned
/// machine x decomposition x Htile space scored two ways — through one
/// compiled BatchEval plan (the batch solver's path: per-machine backends
/// and per-app sweep terms hoisted once) and through a fresh scalar
/// Solver per candidate (the pre-batch reference). Both run serially so
/// candidates/sec gauges the cost model itself, not thread scaling. A
/// separate end-to-end wave::Optimize beam search (seeded, with the DES
/// re-rank) measures what one full recommendation costs.
struct OptimizePerf {
  double candidates = 0.0;  ///< scored per mode (rounds x set size)
  double scalar_wall_s = 0.0;
  double batch_wall_s = 0.0;
  double search_evaluated = 0.0;
  double search_wall_s = 0.0;
};

OptimizePerf optimize_section(const wave::Context& ctx, bool quick) {
  core::benchmarks::Sweep3dConfig s3;
  s3.nx = s3.ny = s3.nz = 96;
  const core::AppParams base_app = core::benchmarks::sweep3d(s3);

  // The pinned candidate stream: the decompositions a beam search's seed
  // and refinement rounds score — closest-to-square grids over a dense
  // processor axis (degenerate 1xP shapes are pruned by the heuristic
  // seeds, so they are rare in real scoring rounds).
  optimize::SearchSpace space;
  space.machines = {core::MachineConfig::xt4_dual_core(),
                    core::MachineConfig::xt4_single_core()};
  for (int p = 512; p <= 4096; p += quick ? 140 : 14)
    space.decompositions.push_back(topo::closest_to_square(p));
  space.htiles = {1, 2, 5, 10};
  const std::size_t count = space.size();

  std::vector<core::AppParams> apps;
  for (double h : space.htiles) {
    apps.push_back(base_app);
    apps.back().htile = h;
  }

  OptimizePerf perf;
  // Both rates are best-of-N over identical rounds: the two loops run at
  // different moments, so a scheduler hiccup in either would otherwise
  // move the quoted speedup (the gate compares them within this file).
  const int rounds = 4;
  perf.candidates = static_cast<double>(count);

  // Scalar: the pre-optimizer cost — the candidate set expressed as the
  // runner sweep it used to be (one Scenario per candidate through the
  // per-point Solver route, backend resolution, validation and record
  // materialization paid every time). Serial, like the batch side.
  {
    std::vector<runner::Scenario> points;
    points.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      const optimize::Candidate c = space.at(k);
      runner::Scenario s;
      s.app = apps[c.htile];
      s.machine = space.machines[c.machine];
      s.grid = space.decompositions[c.decomp];
      s.index = k;
      s.seed = runner::derive_seed(2008, k);
      points.push_back(std::move(s));
    }
    runner::BatchRunner::Options options(1);
    options.batch = false;
    const runner::BatchRunner sweep{ctx, options};
    double sink = 0.0;
    for (int r = 0; r < rounds; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const auto records = sweep.run(points);
      const double wall = seconds_since(start);
      if (r == 0 || wall < perf.scalar_wall_s) perf.scalar_wall_s = wall;
      for (const auto& rec : records) sink += rec.metric("model_iter_us");
    }
    if (sink <= 0.0) std::abort();  // keep the loop observable
  }

  // Batch: the compiled-plan path — the plan is compiled once and
  // amortized over every candidate, so it is built once here too
  // (inside the first timed round, outside the per-candidate loop).
  {
    double sink = 0.0;
    core::BatchEval plan(ctx.comm_model_registry());
    std::vector<std::uint32_t> plan_apps, plan_machines;
    core::BatchScratch scratch;
    core::ModelResult res;
    for (int r = 0; r < rounds; ++r) {
      const auto start = std::chrono::steady_clock::now();
      if (r == 0) {
        for (const core::AppParams& a : apps)
          plan_apps.push_back(plan.add_app(a));
        for (const core::MachineConfig& m : space.machines)
          plan_machines.push_back(plan.add_machine(m));
      }
      for (std::size_t k = 0; k < count; ++k) {
        const optimize::Candidate c = space.at(k);
        plan.evaluate_point({plan_apps[c.htile], plan_machines[c.machine],
                             space.decompositions[c.decomp]},
                            scratch, res);
        sink += res.iteration.total;
      }
      const double wall = seconds_since(start);
      if (r == 0 || wall < perf.batch_wall_s) perf.batch_wall_s = wall;
    }
    if (sink <= 0.0) std::abort();
  }

  // End-to-end: one seeded beam search with the DES re-rank, over the
  // facade (what a user pays for a recommendation).
  {
    const auto start = std::chrono::steady_clock::now();
    const auto result = ctx.optimize()
                            .machines({"xt4-dual", "xt4-single"})
                            .processors(quick ? std::vector<int>{16, 32, 64}
                                              : std::vector<int>{64, 128, 256})
                            .htiles({1, 2, 5, 10})
                            .strategy(SearchStrategy::Beam)
                            .budget(quick ? 60 : 150)
                            .top_k(2)
                            .run();
    if (!result.ok()) std::abort();
    perf.search_evaluated = static_cast<double>(result.value().evaluated);
    perf.search_wall_s = seconds_since(start);
  }
  return perf;
}

/// The facade's memoizing service measured on production-shaped traffic:
/// a small set of distinct analytic queries evaluated cold, then hammered
/// hot. The speedup (hit rate / cold rate) is the headline cache number.
struct ServiceResult {
  double cold_evals = 0.0;
  double cold_wall_s = 0.0;
  double hits = 0.0;
  double hit_wall_s = 0.0;
};

ServiceResult service_section(const wave::Context& ctx, bool quick) {
  // Distinct production-ish points: the model path at depths where a
  // solve costs real work (the r2 recurrence is O(P)).
  std::vector<wave::Query> queries;
  for (const char* machine : {"xt4-dual", "xt4-single"})
    for (int p : {1024, 2048, 4096})
      queries.push_back(ctx.query()
                            .machine(machine)
                            .app("sweep3d-1g")
                            .processors(p));

  ServiceResult res;
  // Cold: evaluation + key canonicalization (all misses). Repeat the
  // whole set through fresh services so the measurement is not one
  // microsecond-scale sample.
  const int cold_rounds = quick ? 20 : 100;
  const auto cold_start = std::chrono::steady_clock::now();
  for (int round = 0; round < cold_rounds; ++round) {
    wave::EvalService service(ctx);
    for (const wave::Query& q : queries) {
      if (!service.evaluate(q).ok()) std::abort();
    }
  }
  res.cold_wall_s = seconds_since(cold_start);
  res.cold_evals = static_cast<double>(cold_rounds) *
                   static_cast<double>(queries.size());

  // Hot: one warm service, same query mix, all hits.
  wave::EvalService service(ctx);
  for (const wave::Query& q : queries) {
    if (!service.evaluate(q).ok()) std::abort();
  }
  const long long hot_rounds = quick ? 2'000 : 20'000;
  const auto hot_start = std::chrono::steady_clock::now();
  for (long long round = 0; round < hot_rounds; ++round) {
    for (const wave::Query& q : queries) {
      if (!service.evaluate(q).ok()) std::abort();
    }
  }
  res.hit_wall_s = seconds_since(hot_start);
  res.hits = static_cast<double>(hot_rounds) *
             static_cast<double>(queries.size());
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const wave::Context ctx = runner::default_context();
  if (runner::handle_list_flags(cli, ctx)) return 0;
  runner::reject_workload_cli(cli, ctx);
  const bool quick = cli.has("quick");
  const int threads = static_cast<int>(cli.get_int("threads", 0));
  runner::print_header(
      "Perf sweep", "measured throughput of the evaluation pipeline",
      "the simulator spends its time in protocol steps, not in the "
      "allocator: steady-state event dispatch is allocation-free, "
      "per-event cost grows only with the log of the pending depth, and "
      "analytic sweeps scale with cores via chunked scheduling");

  const EngineResult eng = engine_section(quick ? 400'000 : 2'000'000);
  const SectionResult sim = sim_section(ctx, quick);
  const SectionResult model =
      model_section(ctx, quick, threads, /*batch_route=*/false);
  const SectionResult model_batch =
      model_section(ctx, quick, threads, /*batch_route=*/true);
  const std::vector<WorkloadPerf> wl = workloads_section(ctx, quick);
  const ServiceResult svc = service_section(ctx, quick);
  const ObsPerf obs = obs_section(ctx, quick);
  const OptimizePerf opt = optimize_section(ctx, quick);
  const int model_threads = runner::BatchRunner(
      ctx, runner::BatchRunner::Options(threads)).threads();

  common::Table table({"section", "work", "wall_s", "throughput"});
  table.add_row({"engine",
                 common::Table::integer(static_cast<long long>(eng.events)) +
                     " events",
                 common::Table::num(eng.wall_s, 3),
                 common::Table::num(rate(eng.events, eng.wall_s) / 1e6, 2) +
                     " M events/s"});
  table.add_row({"sim",
                 common::Table::integer(static_cast<long long>(sim.events)) +
                     " events",
                 common::Table::num(sim.wall_s, 3),
                 common::Table::num(rate(sim.events, sim.wall_s) / 1e6, 2) +
                     " M events/s"});
  table.add_row({"model",
                 common::Table::integer(static_cast<long long>(model.points)) +
                     " points",
                 common::Table::num(model.wall_s, 3),
                 common::Table::num(rate(model.points, model.wall_s) / 1e3, 1) +
                     " k points/s (" + common::Table::integer(model_threads) +
                     " threads, scalar)"});
  const double model_scalar_rate = rate(model.points, model.wall_s);
  const double model_batch_rate = rate(model_batch.points, model_batch.wall_s);
  const double batch_speedup =
      model_scalar_rate > 0.0 ? model_batch_rate / model_scalar_rate : 0.0;
  table.add_row(
      {"model:batch",
       common::Table::integer(static_cast<long long>(model_batch.points)) +
           " points",
       common::Table::num(model_batch.wall_s, 3),
       common::Table::num(model_batch_rate / 1e3, 1) + " k points/s (" +
           common::Table::num(batch_speedup, 1) + "x scalar)"});
  for (const WorkloadPerf& w : wl) {
    table.add_row({"wl:" + w.name,
                   common::Table::integer(static_cast<long long>(w.events)) +
                       " events",
                   common::Table::num(w.wall_s, 3),
                   common::Table::num(rate(w.events, w.wall_s) / 1e6, 2) +
                       " M events/s"});
  }
  const double svc_cold = rate(svc.cold_evals, svc.cold_wall_s);
  const double svc_hot = rate(svc.hits, svc.hit_wall_s);
  table.add_row({"service:cold",
                 common::Table::integer(
                     static_cast<long long>(svc.cold_evals)) + " evals",
                 common::Table::num(svc.cold_wall_s, 3),
                 common::Table::num(svc_cold / 1e3, 1) + " k evals/s"});
  table.add_row({"service:hit",
                 common::Table::integer(static_cast<long long>(svc.hits)) +
                     " hits",
                 common::Table::num(svc.hit_wall_s, 3),
                 common::Table::num(svc_hot / 1e3, 1) + " k hits/s (" +
                     common::Table::num(svc_cold > 0.0 ? svc_hot / svc_cold
                                                       : 0.0, 1) +
                     "x cold)"});
  const double obs_plain = rate(obs.events, obs.plain_wall_s);
  const double obs_instr = rate(obs.events, obs.metrics_wall_s);
  const double obs_traced = rate(obs.events, obs.traced_wall_s);
  table.add_row({"obs:plain",
                 common::Table::integer(static_cast<long long>(obs.events)) +
                     " events",
                 common::Table::num(obs.plain_wall_s, 3),
                 common::Table::num(obs_plain / 1e6, 2) +
                     " M events/s (uninstrumented)"});
  table.add_row({"obs:metrics",
                 common::Table::integer(static_cast<long long>(obs.events)) +
                     " events",
                 common::Table::num(obs.metrics_wall_s, 3),
                 common::Table::num(obs_instr / 1e6, 2) + " M events/s (" +
                     common::Table::num(
                         obs_plain > 0.0 ? obs_instr / obs_plain : 0.0, 2) +
                     "x plain)"});
  table.add_row({"obs:trace",
                 common::Table::integer(static_cast<long long>(obs.events)) +
                     " events",
                 common::Table::num(obs.traced_wall_s, 3),
                 common::Table::num(obs_traced / 1e6, 2) + " M events/s (" +
                     common::Table::num(
                         obs_plain > 0.0 ? obs_traced / obs_plain : 0.0, 2) +
                     "x plain, " +
                     common::Table::integer(
                         static_cast<long long>(obs.spans)) +
                     " spans)"});
  const double opt_scalar = rate(opt.candidates, opt.scalar_wall_s);
  const double opt_batch = rate(opt.candidates, opt.batch_wall_s);
  const double opt_speedup = opt_scalar > 0.0 ? opt_batch / opt_scalar : 0.0;
  table.add_row({"optimize:scalar",
                 common::Table::integer(
                     static_cast<long long>(opt.candidates)) + " cands",
                 common::Table::num(opt.scalar_wall_s, 3),
                 common::Table::num(opt_scalar / 1e3, 1) +
                     " k cands/s (per-point Solver)"});
  table.add_row({"optimize:batch",
                 common::Table::integer(
                     static_cast<long long>(opt.candidates)) + " cands",
                 common::Table::num(opt.batch_wall_s, 3),
                 common::Table::num(opt_batch / 1e3, 1) + " k cands/s (" +
                     common::Table::num(opt_speedup, 1) + "x scalar)"});
  table.add_row({"optimize:search",
                 common::Table::integer(
                     static_cast<long long>(opt.search_evaluated)) +
                     " scored",
                 common::Table::num(opt.search_wall_s, 3),
                 "beam + DES re-rank, end to end"});
  table.print(std::cout);

  const std::string out = cli.get("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) {
      std::cerr << "cannot write " << out << "\n";
      return 1;
    }
    char buf[4096];
    // Per-second rates are written as fixed-point integers: shell tooling
    // (tools/check_perf.sh) compares them with awk, and %.6g's scientific
    // notation for large rates (e.g. 2.7e+06) made those comparisons
    // format-dependent. An integer events/sec loses nothing measurable.
    std::snprintf(
        buf, sizeof buf,
        "{\n"
        "  \"schema\": \"wavebench-perf/2\",\n"
        "  \"bench\": \"perf_sweep\",\n"
        "  \"quick\": %s,\n"
        "  \"model_threads\": %d,\n"
        "  \"engine_events_per_sec\": %lld,\n"
        "  \"des_events_per_sec\": %lld,\n"
        "  \"des_events\": %.6g,\n"
        "  \"des_wall_s\": %.6g,\n"
        "  \"model_points_per_sec\": %lld,\n"
        "  \"model_points\": %.6g,\n"
        "  \"model_wall_s\": %.6g,\n"
        "  \"model_batch_points_per_sec\": %lld,\n"
        "  \"model_batch_points\": %.6g,\n"
        "  \"model_batch_wall_s\": %.6g,\n"
        "  \"model_batch_speedup\": %.6g,\n"
        "  \"service_cold_evals_per_sec\": %lld,\n"
        "  \"service_hits_per_sec\": %lld,\n"
        "  \"service_hit_speedup\": %.6g,\n"
        "  \"obs_uninstrumented_des_events_per_sec\": %lld,\n"
        "  \"obs_instrumented_des_events_per_sec\": %lld,\n"
        "  \"obs_traced_des_events_per_sec\": %lld,\n"
        "  \"obs_trace_spans\": %llu,\n"
        "  \"optimize_candidates\": %.6g,\n"
        "  \"optimize_scalar_candidates_per_sec\": %lld,\n"
        "  \"optimize_batch_candidates_per_sec\": %lld,\n"
        "  \"optimize_batch_speedup\": %.6g,\n"
        "  \"optimize_search_evaluated\": %.6g,\n"
        "  \"optimize_search_wall_s\": %.6g,\n",
        quick ? "true" : "false", model_threads,
        std::llround(rate(eng.events, eng.wall_s)),
        std::llround(rate(sim.events, sim.wall_s)), sim.events, sim.wall_s,
        std::llround(model_scalar_rate), model.points, model.wall_s,
        std::llround(model_batch_rate), model_batch.points,
        model_batch.wall_s, batch_speedup, std::llround(svc_cold),
        std::llround(svc_hot), svc_cold > 0.0 ? svc_hot / svc_cold : 0.0,
        std::llround(obs_plain),
        std::llround(obs_instr), std::llround(obs_traced),
        static_cast<unsigned long long>(obs.spans), opt.candidates,
        std::llround(opt_scalar), std::llround(opt_batch), opt_speedup,
        opt.search_evaluated, opt.search_wall_s);
    os << buf;
    // One flat key per registered workload. The perf tooling
    // (tools/run_perf.sh, tools/check_perf.sh) matches keys anchored to
    // the whole field, so these can never alias the headline keys above
    // whatever a workload is called.
    for (std::size_t i = 0; i < wl.size(); ++i) {
      std::snprintf(buf, sizeof buf, "  \"wl_%s_events_per_sec\": %lld%s\n",
                    wl[i].name.c_str(),
                    std::llround(rate(wl[i].events, wl[i].wall_s)),
                    i + 1 < wl.size() ? "," : "");
      os << buf;
    }
    os << "}\n";
    std::cout << "\nwrote " << out << "\n";
  }
  return 0;
}
