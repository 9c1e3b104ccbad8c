// The traced run: per-layer metrics from the benchmark's own calls into
// each layer of the wave library (sim, core, runner, optimize, api,
// serve), timed from outside with spans, plus the counters the program
// already exports. Every traced run reports every per-layer metric; the
// workload named on the command line decides what trace.overhead_pct
// compares.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "api/api_internal.h"
#include "core/batch_solver.h"
#include "core/solver.h"
#include "obs/metrics.h"
#include "runner/batch_runner.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "sim/engine.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

std::string tag(const char* prefix, int value) {
  return std::string(prefix) + std::to_string(value);
}

/// Per-call median (µs) of `fn` over at least `min_calls` calls and at
/// least `min_seconds` of calls, each call traced as `span`.
template <class Fn>
double median_call_us(Tracer& tracer, const std::string& span, int min_calls,
                      double min_seconds, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  for (int n = 0; n < min_calls || seconds_since(start) < min_seconds; ++n) {
    Scope s(&tracer, span);
    fn();
  }
  return median(tracer.durations_us(span));
}

// ---- sim ---------------------------------------------------------------------

struct DesSample {
  double wall_s = 0.0;
  double events = 0.0;
};

/// One instrumented validate() of a paper-scale point: the scenario path
/// under the facade with a metrics registry attached.
DesSample traced_point(const wave::Context& ctx, Tracer& tracer,
                       const wave::Query& query, const std::string& span,
                       Outcome& out, wave::MetricsSnapshot& snapshot,
                       wave::runner::Metrics& metrics) {
  wave::obs::MetricsRegistry registry;
  wave::runner::Scenario scenario = wave::api::scenario_from(ctx, query);
  scenario.metrics = &registry;
  const Clock::time_point start = Clock::now();
  {
    Scope s(&tracer, span);
    metrics = wave::runner::workload_model_vs_sim_metrics(ctx, scenario);
  }
  DesSample sample;
  sample.wall_s = seconds_since(start);
  snapshot = registry.snapshot();
  for (const auto& c : snapshot.counters)
    if (c.name == "sim_events_total") sample.events = c.value;
  out.check(sample.events > 0.0, "sim events counted");
  return sample;
}

/// A counter's or gauge's value in a registry snapshot (0 when absent).
double registry_value(const wave::MetricsSnapshot& snap,
                      const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return static_cast<double>(c.value);
  for (const auto& g : snap.gauges)
    if (g.name == name) return static_cast<double>(g.value);
  return 0.0;
}

double metric(const wave::runner::Metrics& metrics, const std::string& name) {
  for (const auto& [key, value] : metrics)
    if (key == name) return value;
  return -1.0;
}

/// Hold model through sim::Engine alone: `depth` pending events, each of
/// which reschedules one successor at an exponential (mean 1 µs) or, when
/// `tied`, a whole-µs (1-4) increment, until the run's events are done —
/// the density of pending events per simulated µs grows with depth, as it
/// does with P in the wavefront. Returns ns per event of run().
double engine_hold_ns(int depth, bool tied, std::uint64_t seed,
                      Outcome& out) {
  struct State {
    wave::sim::Engine engine;
    std::vector<double> increments;
    std::size_t next = 0;
    long long remaining = 0;
  };
  struct Hold {
    State* s;
    void operator()() const {
      if (--s->remaining < 0) return;
      const double dt = s->increments[s->next++ & (s->increments.size() - 1)];
      s->engine.after(dt, Hold{s});
    }
  };
  auto state = std::make_unique<State>();
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> exp(1.0);
  state->increments.resize(std::size_t{1} << 16);
  for (double& dt : state->increments)
    dt = tied ? static_cast<double>(1 + rng() % 4) : exp(rng);
  // Tied times are far slower per event; keep that case to a short run.
  const long long total = tied ? 2LL * depth : 2LL * depth + 100000;
  state->remaining = total - depth;
  for (int i = 0; i < depth; ++i)
    state->engine.at(state->increments[state->next++], Hold{state.get()});
  const Clock::time_point start = Clock::now();
  state->engine.run();
  const double wall = seconds_since(start);
  const double events = static_cast<double>(state->engine.events_processed());
  out.check(events == static_cast<double>(total), "hold-model events");
  return wall * 1e9 / events;
}

/// The sim layer.
void sim_layer(const wave::Context& ctx, Tracer& tracer,
               const RunConfig& config, Outcome& out) {
  double wall_4096 = 0.0, wall_16384 = 0.0;
  for (const DesPoint& p : des_points()) {
    wave::MetricsSnapshot snap;
    wave::runner::Metrics metrics;
    const DesSample s =
        traced_point(ctx, tracer, des_query(ctx, p.processors),
                     tag("sim.validate.p", p.processors), out, snap, metrics);
    if (p.processors == 4096) wall_4096 = s.wall_s;
    if (p.processors == 16384) wall_16384 = s.wall_s;
    const double messages = registry_value(snap, "sim_messages_total");
    out.check(s.events == static_cast<double>(p.events) &&
                  messages == static_cast<double>(p.messages) &&
                  metric(metrics, "sim_us") == p.sim_us,
              "des events, messages and sim_us as recorded");
    if (s.events != static_cast<double>(p.events) ||
        messages != static_cast<double>(p.messages))
      std::fprintf(stderr, "des P=%d: events %.0f messages %.0f\n",
                   p.processors, s.events, messages);
    const std::string at = tag(".p", p.processors);
    out.add("sim.ns_per_event" + at, s.wall_s * 1e9 / s.events, "ns");
    out.add("sim.max_pending" + at, registry_value(snap, "sim_max_pending_events"),
            "count");
    out.add("sim.rebuilds_per_kevent" + at,
            registry_value(snap, "sim_calendar_rebuilds_total") * 1e3 / s.events,
            "count");
    out.add("sim.events" + at, s.events, "count");
    out.add("sim.messages" + at, messages, "count");
    out.add("sim.divergence_pct" + at, metric(metrics, "err_pct"), "%");
  }

  // World build: the intercept of wall time over iterations 1 and 2.
  {
    wave::MetricsSnapshot snap;
    wave::runner::Metrics metrics;
    const DesSample two = traced_point(
        ctx, tracer, des_query(ctx, 16384).iterations(2),
        "sim.validate.p16384.iter2", out, snap, metrics);
    out.add("sim.build_s.p16384", 2.0 * wall_16384 - two.wall_s, "s");
  }

  // The parallel engine's kill bar: 4 workers against the serial engine.
  {
    wave::MetricsSnapshot snap;
    wave::runner::Metrics metrics;
    const DesSample lp = traced_point(
        ctx, tracer, des_query(ctx, 4096).sim_threads(4),
        "sim.validate.p4096.lp4", out, snap, metrics);
    out.add("sim.lp4_speedup.p4096", wall_4096 / lp.wall_s, "x");
    // The determinism contract says any sim_threads value reproduces the
    // serial result bit for bit; this reads 0 while it does.
    const double serial_us = des_points()[1].sim_us;
    out.add("sim.lp4_divergence_pct.p4096",
            100.0 * std::fabs(metric(metrics, "sim_us") - serial_us) / serial_us,
            "%");
  }

  for (const int depth : {1024, 16384, 65536}) {
    Scope s(&tracer, tag("sim.engine.d", depth));
    out.add(tag("sim.engine_ns_per_event.d", depth),
            engine_hold_ns(depth, false, config.seed, out), "ns");
  }
  {
    Scope s(&tracer, "sim.engine.tied16384");
    out.add("sim.engine_ns_per_event.tied16384",
            engine_hold_ns(16384, true, config.seed, out), "ns");
  }

  // The MPI protocol alone: the pingpong workload's messages.
  {
    const auto pingpong =
        wave::workloads::get_workload(ctx.workload_registry(), "pingpong");
    wave::workloads::WorkloadInputs in;
    in.grid = wave::topo::closest_to_square(64);
    in.params["reps"] = 20000;
    const Clock::time_point start = Clock::now();
    wave::workloads::SimOutput res;
    {
      Scope s(&tracer, "sim.pingpong");
      res = pingpong->simulate(ctx.resolve_machine("xt4-dual"),
                               ctx.comm_model_registry(), in);
    }
    const double wall = seconds_since(start);
    out.check(res.messages > 0, "pingpong messages");
    out.add("sim.protocol_ns_per_msg",
            wall * 1e9 / static_cast<double>(res.messages), "ns");
  }
}

// ---- core ----------------------------------------------------------------------

void core_layer(const wave::Context& ctx, Tracer& tracer, Outcome& out) {
  std::vector<wave::core::AppParams> apps;
  for (const std::string& name : app_presets())
    apps.push_back(wave::api::app_preset(name));
  std::vector<wave::core::MachineConfig> machines;
  for (const std::string& name : machine_names())
    machines.push_back(ctx.resolve_machine(name));

  wave::core::BatchEval plan(ctx.comm_model_registry());
  out.add("core.plan_compile_us",
          median_call_us(tracer, "core.plan_compile", 20, 0.02, [&] {
            wave::core::BatchEval fresh(ctx.comm_model_registry());
            for (const auto& a : apps) fresh.add_app(a);
            for (const auto& m : machines) fresh.add_machine(m);
          }),
          "us");
  const std::uint32_t app = plan.add_app(apps[0]);
  const std::uint32_t machine = plan.add_machine(machines[0]);
  for (const int p : {4096, 65536}) {
    const wave::core::BatchPoint point{app, machine,
                                       wave::topo::closest_to_square(p)};
    wave::core::BatchScratch scratch;
    wave::core::ModelResult batch;
    const double batch_us =
        median_call_us(tracer, tag("core.batch_point.p", p), 20, 0.05,
                       [&] { plan.evaluate_point(point, scratch, batch); });
    out.add(tag("core.batch_ns_per_point.p", p), batch_us * 1e3, "ns");

    wave::core::ModelResult scalar;
    const double scalar_us =
        median_call_us(tracer, tag("core.scalar_point.p", p), 10, 0.05, [&] {
          scalar = wave::core::Solver(apps[0], machines[0],
                                      ctx.comm_model_registry())
                       .evaluate(p);
        });
    out.check(std::memcmp(&scalar.iteration, &batch.iteration,
                          sizeof batch.iteration) == 0,
              "batch point equals scalar point");
    out.add(tag("core.scalar_us_per_point.p", p), scalar_us, "us");
  }
}

// ---- runner ----------------------------------------------------------------------

void runner_layer(const wave::Context& ctx, Tracer& tracer, Outcome& out) {
  const std::string app = app_presets()[0];
  const std::vector<int>& procs = sweep_processors();
  const int threads = static_cast<int>(std::thread::hardware_concurrency());
  auto study_s = [&](int t) {
    double best = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
      const Clock::time_point start = Clock::now();
      Scope s(&tracer, tag("runner.study.t", t));
      auto r = ctx.study()
                   .app(app)
                   .machines(machine_names())
                   .comm_models(comm_model_names())
                   .processors(procs)
                   .threads(t)
                   .run();
      out.check(r.ok(), "study run");
      best = std::min(best, seconds_since(start));
    }
    return best;
  };
  const double one = study_s(1);
  const double many = study_s(threads);
  out.add("runner.thread_scaling", one / many, "x");

  // The same points straight through the batch solver, serially: what the
  // single-threaded Study would cost with no runner around it.
  double direct = 1e30;
  for (int rep = 0; rep < 2; ++rep) {
    const Clock::time_point start = Clock::now();
    Scope s(&tracer, "runner.direct_batch");
    wave::core::BatchEval plan(ctx.comm_model_registry());
    const std::uint32_t a = plan.add_app(wave::api::app_preset(app));
    std::vector<std::uint32_t> ms;
    for (const std::string& name : machine_names())
      for (const std::string& comm : comm_model_names()) {
        wave::core::MachineConfig m = ctx.resolve_machine(name);
        m.comm_model = comm;
        ms.push_back(plan.add_machine(m));
      }
    wave::core::BatchScratch scratch;
    wave::core::ModelResult res;
    for (const std::uint32_t m : ms)
      for (const int p : procs)
        plan.evaluate_point({a, m, wave::topo::closest_to_square(p)}, scratch,
                            res);
    direct = std::min(direct, seconds_since(start));
  }
  out.add("runner.overhead_frac", 1.0 - direct / one, "ratio");
}

// ---- optimize --------------------------------------------------------------------

void optimize_layer(const wave::Context& ctx, Tracer& tracer,
                    const RunConfig& config, Outcome& out) {
  wave::Optimize job = optimize_job(ctx, config.seed);
  auto timed = [&](int top_k, const char* span) {
    const Clock::time_point start = Clock::now();
    Scope s(&tracer, span);
    auto r = job.top_k(top_k).run();
    out.check(r.ok(), "optimize run");
    return std::make_pair(seconds_since(start),
                          r.ok() ? r.value().evaluated : std::size_t{0});
  };
  const auto [search_s, evaluated] = timed(0, "optimize.search");
  const auto [full_s, evaluated_full] = timed(3, "optimize.search_rerank");
  out.check(evaluated == evaluated_full, "re-rank leaves the search alone");
  out.add("optimize.search_ms", search_s * 1e3, "ms");
  out.add("optimize.rerank_s", full_s - search_s, "s");
  out.add("optimize.evaluated", static_cast<double>(evaluated), "count");
}

// ---- api -------------------------------------------------------------------------

void api_layer(Tracer& tracer, const RunConfig& config, Outcome& out) {
  constexpr std::size_t kSample = 64;
  MixSetup s = mix_setup(config.seed, out);
  MixReference reference(s.mix->size());

  {
    wave::EvalService fresh(
        *s.ctx, wave::EvalService::Options(QueryMix::kCacheCapacity));
    const Clock::time_point start = Clock::now();
    Scope span(&tracer, "api.warm");
    auto warmed = fresh.warm(s.mix->hot_study(*s.ctx));
    out.check(warmed.ok() && warmed.value() == s.mix->hot_size(),
              "warm adds the hot set");
    out.add("api.warm_us_per_point",
            micros_between(start, Clock::now()) /
                static_cast<double>(s.mix->hot_size()),
            "us");
  }

  // Misses, then keys and hits, on a sample of the cold (non-hot) items.
  wave::EvalService service(
      *s.ctx, wave::EvalService::Options(QueryMix::kCacheCapacity));
  std::vector<std::size_t> sample;
  std::mt19937_64 rng(config.seed);
  for (std::size_t k = 0; k < kSample; ++k)
    sample.push_back(s.mix->hot_size() +
                     rng() % (s.mix->size() - s.mix->hot_size()));
  for (const std::size_t i : sample) {
    auto r = [&] {
      Scope span(&tracer, "api.miss");
      return service.evaluate(s.queries[i]);
    }();
    out.check(r.ok() && reference.matches(s.queries[i], i, r.value()),
              "miss equals cold Query::run");
  }
  std::size_t next = 0;
  const double key_us = median_call_us(tracer, "api.canonical_key", 2000, 0.05,
                                       [&] {
    (void)service.canonical_key(s.queries[sample[next++ % kSample]]);
  });
  for (int n = 0; n < 2000; ++n) {
    const std::size_t i = sample[n % kSample];
    auto r = [&] {
      Scope span(&tracer, "api.hit");
      return service.evaluate(s.queries[i]);
    }();
    out.check(r.ok() && reference.matches(s.queries[i], i, r.value()),
              "hit equals cold Query::run");
  }
  const double hit_us = median(tracer.durations_us("api.hit"));
  out.add("api.key_us", key_us, "us");
  out.add("api.hit_us", hit_us, "us");
  out.add("api.lookup_copy_us", hit_us - key_us, "us");
  out.add("api.miss_us", median(tracer.durations_us("api.miss")), "us");

  // Hit ratio and resets under the query-mix traffic.
  mix_loop(s, reference, 2.0, &tracer, out);
  const wave::EvalService::Stats st = s.service->stats();
  out.add("api.hit_ratio",
          static_cast<double>(st.hits) /
              static_cast<double>(st.hits + st.misses),
          "ratio");
  out.add("api.resets", static_cast<double>(st.resets), "count");
}

// ---- serve -----------------------------------------------------------------------

/// Median of a Prometheus histogram (`<name>_bucket{le="..."} cumulative`
/// lines), interpolated linearly inside the log2 bucket holding the rank.
double prometheus_p50(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  const std::string prefix = name + "_bucket{le=\"";
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  while (std::getline(lines, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t close = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    const double count = std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    buckets.emplace_back(le == "+Inf" ? HUGE_VAL : std::strtod(le.c_str(), nullptr),
                         count);
  }
  if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
  const double rank = buckets.back().second / 2.0;
  double lower = 0.0, below = 0.0;
  for (const auto& [le, cumulative] : buckets) {
    if (cumulative >= rank) {
      if (std::isinf(le)) return lower;
      return lower + (le - lower) * (rank - below) / (cumulative - below);
    }
    lower = le;
    below = cumulative;
  }
  return lower;
}

void serve_layer(const wave::Context& ctx, Tracer& tracer,
                 const RunConfig& config, Outcome& out) {
  QueryMix mix(config.seed, ServeRig::kDesShare);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 64; ++i)
    lines.push_back(mix.request_line(mix.draw(), std::to_string(i)));
  std::size_t next = 0;
  out.add("serve.parse_us",
          median_call_us(tracer, "serve.parse_request", 2000, 0.05, [&] {
            wave::serve::Request request;
            std::string error;
            out.check(wave::serve::parse_request(lines[next++ % lines.size()],
                                                 request, error),
                      "request line parses");
          }),
          "us");
  auto sample = mix.query(ctx, 0).run();
  out.check(sample.ok(), "render sample evaluates");
  if (sample.ok())
    out.add("serve.render_us",
            median_call_us(tracer, "serve.render_result", 2000, 0.05, [&] {
              (void)wave::serve::render_result("42", sample.value(), false);
            }),
            "us");
  else
    out.add("serve.render_us", 0.0, "us");

  ServeRig rig(ctx, config.scratch);
  out.check(rig.start().is_ok(), "server start");
  rig.warm(mix, out);
  const ServeRig::Stream s = rig.stream(mix, 2.0, &tracer, out);
  const double client_p50 = percentile(s.latency_us, 50);

  wave::serve::JsonValue reply;
  std::string error;
  const bool parsed = wave::serve::parse_json(
      rig.control("{\"id\":\"m\",\"op\":\"metrics\"}"), reply, error);
  const wave::serve::JsonValue* text = parsed ? reply.find("metrics") : nullptr;
  out.check(text != nullptr && text->is_string(), "metrics op");
  const double server_p50 =
      text != nullptr ? prometheus_p50(text->text, "serve_op_eval_latency_us")
                      : 0.0;
  out.add("serve.server_eval_p50_us", server_p50, "us");
  out.add("serve.transport_queue_us", client_p50 - server_p50, "us");
  out.add("serve.generator_late_us", percentile(s.late_us, 99), "us");
  const wave::ServeStats stats = rig.stats();
  out.add("serve.shed", static_cast<double>(stats.shed), "count");
  out.add("serve.deadline_exceeded",
          static_cast<double>(stats.deadline_exceeded), "count");

  const Clock::time_point start = Clock::now();
  std::string snapshot;
  {
    Scope span(&tracer, "serve.snapshot");
    snapshot = rig.control("{\"id\":\"n\",\"op\":\"snapshot\"}");
  }
  out.check(snapshot.find("\"ok\":true") != std::string::npos,
            "snapshot op");
  out.add("serve.snapshot_ms", micros_between(start, Clock::now()) / 1e3,
          "ms");
}

}  // namespace

Outcome run_layers(const RunConfig& config) {
  Outcome out;
  Tracer tracer;
  auto ctx = make_context();

  // trace.overhead_pct: the fastest of three untraced and three traced
  // runs of the workload's unit on the same call path, in an order that
  // puts each side first equally often. For des-paper-scale the unit is
  // one point, not a whole ~10 s pass.
  double untraced = 1e30, traced = 1e30;
  for (const bool with_trace : {false, true, true, false, false, true}) {
    double& best = with_trace ? traced : untraced;
    best = std::min(best,
                    run_unit(config, with_trace ? &tracer : nullptr, out));
  }
  sim_layer(*ctx, tracer, config, out);
  core_layer(*ctx, tracer, out);
  runner_layer(*ctx, tracer, out);
  optimize_layer(*ctx, tracer, config, out);
  api_layer(tracer, config, out);
  serve_layer(*ctx, tracer, config, out);
  out.add("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%");

  const std::string path = config.scratch + "/trace-" + config.workload +
                           "-" + std::to_string(config.seed) + ".json";
  std::ofstream file(path);
  tracer.write_chrome(file);
  out.check(static_cast<bool>(file), "span file written");
  return out;
}

}  // namespace perfbench
