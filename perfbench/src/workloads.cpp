#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace perfbench {

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_terms(const std::vector<std::pair<std::string, double>>& a,
                const std::vector<std::pair<std::string, double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].first != b[i].first || !same_bits(a[i].second, b[i].second))
      return false;
  return true;
}

/// `lo * 2^(k / per_octave)` for k = 0, 1, ... up to `hi`, rounded.
std::vector<int> geometric_axis(int lo, int hi, int per_octave) {
  std::vector<int> out;
  for (int k = 0;; ++k) {
    const int p = static_cast<int>(
        std::lround(lo * std::exp2(static_cast<double>(k) / per_octave)));
    if (p > hi) break;
    if (out.empty() || out.back() != p) out.push_back(p);
  }
  return out;
}

/// Times set-up: a Context with its machine catalog. On the 4-core VM this
/// benchmark was tuned on, one set-up takes ~55 µs in some batches of
/// calls and 90-190 µs in others, with the host's load, while a compute
/// loop holds steady; batches that follow a short idle pause are fast
/// more often, and the fastest batch within a second repeats to within
/// ~5% across processes, where the median over a run's batches moves by
/// ~20%. So set-up is timed in bursts spread through the run, each batch
/// of kBatchSize set-ups after a 2 ms pause, and setup_s is the fastest
/// batch's time per set-up. A change that slows set-up slows that batch
/// too.
class SetupTimer {
 public:
  void burst() {
    for (int b = 0; b < kBatches; ++b) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < kBatchSize; ++i) make_context();
      fastest_ = std::min(fastest_, seconds_since(start) / kBatchSize);
    }
  }
  double seconds() const { return fastest_; }

 private:
  static constexpr int kBatches = 10;
  static constexpr int kBatchSize = 20;
  double fastest_ = 1e30;
};

/// Adds the end-to-end metrics every workload reports: set-up, outputs,
/// memory, and the run's best round (see Rounds) of throughput and
/// latency.
void add_end_to_end(Outcome& out, const SetupTimer& setup,
                    const Rounds::Best& best) {
  out.add("setup_s", setup.seconds(), "s");
  out.add("ok_ratio",
          out.attempted == 0
              ? 0.0
              : static_cast<double>(out.attempted - out.failed) /
                    static_cast<double>(out.attempted),
          "ratio");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  out.add("throughput_per_s", best.per_s, "1/s");
  out.add("latency_p50_us", best.p50_us, "us");
  out.add("latency_tail_us", best.tail_us, "us");
}

}  // namespace

// ---- shared vocabulary ---------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "des-paper-scale", "what-if-sweep"};
  return names;
}

std::unique_ptr<wave::Context> make_context() {
  auto ctx = std::make_unique<wave::Context>();
  const wave::Status status = ctx->add_machine_dir("machines");
  if (!status.is_ok())
    throw std::runtime_error("machine catalog: " + status.to_string());
  return ctx;
}

const std::vector<std::string>& app_presets() {
  static const std::vector<std::string> apps = {"sweep3d-20m", "sweep3d-1g",
                                                "lu", "chimaera"};
  return apps;
}

const std::vector<std::string>& machine_names() {
  static const std::vector<std::string> machines = {
      "xt4-dual", "xt4-single", "sp2", "fatnode-loggps",
      "quadcore-shared-bus"};
  return machines;
}

const std::vector<std::string>& comm_model_names() {
  static const std::vector<std::string> comms = {"loggp", "loggps",
                                                 "contention"};
  return comms;
}

bool same_result(const wave::Result& a, const wave::Result& b) {
  return a.workload == b.workload && a.machine == b.machine &&
         a.comm_model == b.comm_model && a.processors == b.processors &&
         a.engine == b.engine && same_bits(a.time_us, b.time_us) &&
         same_bits(a.comm_us, b.comm_us) && same_terms(a.terms, b.terms) &&
         a.validated == b.validated && same_bits(a.model_us, b.model_us) &&
         same_bits(a.sim_us, b.sim_us) &&
         same_bits(a.divergence_pct, b.divergence_pct) &&
         a.within_tolerance == b.within_tolerance;
}

// ---- des-paper-scale ---------------------------------------------------------

const std::vector<DesPoint>& des_points() {
  static const std::vector<DesPoint> points = {
      {1024, 34149.337871998941, 18326.808720000008, 285696, 83968},
      {4096, 25176.315759998153, 12308.586448000007, 1204224, 356352},
      {16384, 29301.764359996389, 12748.228112000053, 5038080, 1499136},
  };
  return points;
}

wave::Query des_query(const wave::Context& ctx, int processors) {
  return ctx.query()
      .machine("xt4-dual")
      .app("sweep3d-1g")
      .problem(256, 256, 8)
      .processors(processors)
      .validate();
}

// ---- the query mix ----------------------------------------------------------------

QueryMix::QueryMix(std::uint64_t seed, double des_share)
    : des_share_(des_share), rng_(seed) {
  // Seeded order within each machine, machines taking turns rank by rank:
  // a hit's cost depends on the machine (its config text is part of the
  // key), so the head of the ranking holds every machine whatever the seed.
  const std::vector<int> procs = geometric_axis(64, 16384, 4);
  auto ranked = [&](bool hot) {
    std::vector<std::vector<Item>> by_machine;
    for (const std::string& machine : machine_names()) {
      by_machine.emplace_back();
      for (const std::string& app : app_presets())
        if ((app == hot_app_) == hot)
          for (const std::string& comm : comm_model_names())
            for (int p : procs)
              by_machine.back().push_back({app, machine, comm, p});
      std::shuffle(by_machine.back().begin(), by_machine.back().end(), rng_);
    }
    std::vector<Item> out;
    for (std::size_t r = 0; r < by_machine[0].size(); ++r)
      for (const auto& list : by_machine) out.push_back(list[r]);
    return out;
  };
  hot_app_ = app_presets()[0];
  items_ = ranked(true);
  hot_size_ = items_.size();
  const std::vector<Item> cold = ranked(false);
  items_.insert(items_.end(), cold.begin(), cold.end());
  analytic_ = items_.size();
  double total = 0.0;
  for (std::size_t r = 0; r < analytic_; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  if (des_share_ > 0.0)
    for (const char* machine : {"xt4-dual", "xt4-single", "sp2"})
      for (int p : {4, 16})
        items_.push_back({"sweep3d-64", machine, "", p, /*des=*/true});
}

std::size_t QueryMix::draw() {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  if (des_share_ > 0.0 && u < des_share_)
    return analytic_ + rng_() % (items_.size() - analytic_);
  const double v = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), v);
  return std::min<std::size_t>(it - cdf_.begin(), analytic_ - 1);
}

wave::Query QueryMix::query(const wave::Context& ctx, std::size_t i) const {
  const Item& it = items_[i];
  wave::Query q = ctx.query().machine(it.machine).app(it.app).processors(
      it.processors);
  if (!it.comm_model.empty()) q.comm_model(it.comm_model);
  if (it.des) q.engine(wave::Engine::Simulation);
  return q;
}

std::string QueryMix::request_line(std::size_t i, const std::string& id) const {
  const Item& it = items_[i];
  std::string line = "{\"id\":\"" + id + "\",\"op\":\"eval\",\"machine\":\"" +
                     it.machine + "\",\"app\":\"" + it.app + "\"";
  if (!it.comm_model.empty())
    line += ",\"comm_model\":\"" + it.comm_model + "\"";
  line += ",\"processors\":" + std::to_string(it.processors);
  if (it.des) line += ",\"engine\":\"sim\"";
  return line + "}";
}

wave::Study QueryMix::hot_study(const wave::Context& ctx) const {
  return ctx.study()
      .app(hot_app_)
      .machines(machine_names())
      .comm_models(comm_model_names())
      .processors(geometric_axis(64, 16384, 4));
}

// ---- the wave-serve rig ------------------------------------------------------------

struct ServeRig::Impl {
  const wave::Context* ctx;
  wave::ServeOptions options;
  std::unique_ptr<wave::serve::Server> server;
  wave::serve::Client client;
  /// In-process reference results by request line (minus the id).
  std::vector<std::unique_ptr<wave::Result>> references;

  const wave::Result& reference(const QueryMix& mix, std::size_t i) {
    if (references.size() < mix.size()) references.resize(mix.size());
    if (!references[i]) {
      wave::serve::Request request;
      std::string error;
      if (!wave::serve::parse_request(mix.request_line(i, "ref"), request,
                                      error))
        throw std::runtime_error("request line does not parse: " + error);
      auto result = wave::serve::query_from(*ctx, request).run();
      if (!result.ok())
        throw std::runtime_error("reference evaluation failed: " +
                                 result.status().to_string());
      references[i] = std::make_unique<wave::Result>(result.value());
    }
    return *references[i];
  }
};

ServeRig::ServeRig(const wave::Context& ctx, const std::string& scratch)
    : impl_(std::make_unique<Impl>()) {
  impl_->ctx = &ctx;
  const std::string stem = scratch + "/serve-" + std::to_string(::getpid());
  impl_->options.socket_path = stem + ".sock";
  impl_->options.snapshot_path = stem + ".snap";
  impl_->options.workers = kWorkers;
  impl_->options.cache_capacity = QueryMix::kCacheCapacity;
}

ServeRig::~ServeRig() {
  stop();
  std::remove(impl_->options.snapshot_path.c_str());
}

wave::Status ServeRig::start() {
  impl_->server =
      std::make_unique<wave::serve::Server>(*impl_->ctx, impl_->options);
  if (wave::Status s = impl_->server->start(); !s.is_ok()) return s;
  return impl_->client.connect(impl_->options.socket_path);
}

void ServeRig::stop() {
  impl_->client.close();
  if (impl_->server) impl_->server->stop();
}

wave::ServeStats ServeRig::stats() const { return impl_->server->stats(); }

std::string ServeRig::control(const std::string& line) {
  wave::serve::Client client;
  if (!client.connect(impl_->options.socket_path).is_ok()) return "";
  auto reply = client.call(line);
  return reply.ok() ? reply.value().raw : "";
}

void ServeRig::warm(const QueryMix& mix, Outcome& outcome) {
  for (std::size_t i = 0; i < mix.hot_size(); ++i) {
    auto reply = impl_->client.call(mix.request_line(i, "w"));
    outcome.check(reply.ok() && reply.value().ok, "warm request answered");
  }
}

ServeRig::Stream ServeRig::stream(QueryMix& mix, double seconds,
                                  Tracer* tracer, Outcome& outcome) {
  Stream out;
  const std::size_t planned = static_cast<std::size_t>(kRate * seconds);
  std::vector<std::size_t> items(planned);
  std::vector<std::string> lines(planned);
  for (std::size_t i = 0; i < planned; ++i) {
    items[i] = mix.draw();
    lines[i] = mix.request_line(items[i], std::to_string(i));
  }
  std::vector<Clock::time_point> received(planned);
  std::vector<std::size_t> hashes(planned, 0);
  std::vector<char> answered(planned, 0);
  out.late_us.assign(planned, 0.0);

  const auto period = std::chrono::nanoseconds(
      static_cast<long long>(1e9 / kRate));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t i) { return start + period * i; };

  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::thread sender([&] {
    for (std::size_t i = 0; i < planned; ++i) {
      std::this_thread::sleep_until(due(i));
      const Clock::time_point sent = Clock::now();
      out.late_us[i] = micros_between(due(i), sent);
      if (!impl_->client.send_line(lines[i]).is_ok()) return;
      if (tracer != nullptr)
        tracer->add("serve.send", sent, Clock::now(), 0, i + 1);
    }
  });
  std::thread receiver([&] {
    for (std::size_t n = 0; n < planned; ++n) {
      auto reply = impl_->client.read_line();
      if (!reply.ok()) break;
      const Clock::time_point now = Clock::now();
      const std::string& line = reply.value();
      // Responses open with {"id":"<index>".
      const std::size_t i = std::strtoull(line.c_str() + 7, nullptr, 10);
      if (line.compare(0, 7, "{\"id\":\"") != 0 || i >= planned) break;
      received[i] = now;
      hashes[i] = std::hash<std::string>{}(line);
      answered[i] = 1;
    }
    const std::lock_guard<std::mutex> lock(mutex);
    done = true;
    done_cv.notify_all();
  });
  {
    // A response that never comes must not hang the run: past a generous
    // deadline, stopping the server unblocks the receiver.
    std::unique_lock<std::mutex> lock(mutex);
    if (!done_cv.wait_for(lock, std::chrono::duration<double>(seconds + 30.0),
                          [&] { return done; })) {
      lock.unlock();
      impl_->server->stop();
    }
  }
  sender.join();
  receiver.join();

  for (std::size_t i = 0; i < planned; ++i) {
    bool ok = answered[i] != 0;
    if (ok) {
      const std::string expected = wave::serve::render_result(
          std::to_string(i), impl_->reference(mix, items[i]), false);
      ok = std::hash<std::string>{}(expected) == hashes[i];
      out.latency_us.push_back(micros_between(due(i), received[i]));
      if (tracer != nullptr)
        tracer->add("serve.request", due(i), received[i], 0, i + 1);
    }
    outcome.check(ok, "response equals render_result of the result");
  }
  return out;
}

// ---- what-if-sweep and query-mix pieces ------------------------------------------

const std::vector<int>& sweep_processors() {
  static const std::vector<int> procs = geometric_axis(64, 65536, 8);
  return procs;
}

wave::Optimize optimize_job(const wave::Context& ctx, std::uint64_t seed) {
  return ctx.optimize()
      .machines(machine_names())
      .comm_models(comm_model_names())
      .processors({256, 512, 1024})
      .htiles({1, 2, 5, 10})
      .strategy(wave::SearchStrategy::Beam)
      .threads(static_cast<int>(std::thread::hardware_concurrency()))
      .seed(seed);
}

bool MixReference::matches(const wave::Query& query, std::size_t i,
                           const wave::Result& got) {
  if (!results_[i]) {
    auto cold = query.run();
    if (!cold.ok()) return false;
    results_[i] = std::make_unique<wave::Result>(cold.value());
  }
  return same_result(*results_[i], got);
}

MixSetup mix_setup(std::uint64_t seed, Outcome& outcome) {
  MixSetup s;
  s.ctx = make_context();
  s.mix = std::make_unique<QueryMix>(seed);
  for (std::size_t i = 0; i < s.mix->size(); ++i)
    s.queries.push_back(s.mix->query(*s.ctx, i));
  s.service = std::make_unique<wave::EvalService>(
      *s.ctx, wave::EvalService::Options(QueryMix::kCacheCapacity));
  auto warmed = s.service->warm(s.mix->hot_study(*s.ctx));
  outcome.check(warmed.ok() && warmed.value() == s.mix->hot_size(),
                "warm adds the hot set");
  return s;
}

void mix_loop(MixSetup& s, MixReference& reference, double seconds,
              Tracer* tracer, Outcome& outcome) {
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0;; ++n) {
    if ((n & 255) == 0 && seconds_since(start) >= seconds) break;
    const std::size_t i = s.mix->draw();
    auto result = [&] {
      Scope span(tracer, "api.evaluate", 0, n + 1);
      return s.service->evaluate(s.queries[i]);
    }();
    outcome.check(result.ok() &&
                      reference.matches(s.queries[i], i, result.value()),
                  "evaluate equals cold Query::run");
  }
}

// ---- workload units ------------------------------------------------------------

namespace {

/// One facade validate() of a paper-scale point, checked against the
/// recorded outputs; returns its wall seconds. The points hold no random
/// choice, so the seed does not enter.
double des_point(const wave::Context& ctx, const DesPoint& point,
                 Tracer* tracer, Outcome& outcome) {
  const Clock::time_point start = Clock::now();
  auto r = [&] {
    Scope span(tracer, "des.validate.p" + std::to_string(point.processors));
    return des_query(ctx, point.processors).run();
  }();
  const double wall = seconds_since(start);
  const bool ok = r.ok() && same_bits(r.value().sim_us, point.sim_us) &&
                  same_bits(r.value().model_us, point.model_us);
  if (!ok && r.ok())
    std::fprintf(stderr, "des P=%d: sim_us %.17g model_us %.17g\n",
                 point.processors, r.value().sim_us, r.value().model_us);
  outcome.check(ok, "des sim_us and model_us as recorded");
  return wall;
}

struct SweepRound {
  double wall_s = 0.0;
  std::size_t rows = 0;
};

/// One round: a Study per app preset over the what-if grid. A seeded
/// sample of the rows is checked against scalar Query::run() bit for bit.
SweepRound sweep_round(const wave::Context& ctx, std::mt19937_64& rng,
                       Tracer* tracer, Outcome& outcome) {
  constexpr int kChecksPerStudy = 2;
  const std::vector<int>& procs = sweep_processors();
  const std::size_t comms = comm_model_names().size();
  SweepRound round;
  for (const std::string& app : app_presets()) {
    const Clock::time_point start = Clock::now();
    auto result = [&] {
      Scope span(tracer, "runner.study");
      return ctx.study()
          .app(app)
          .machines(machine_names())
          .comm_models(comm_model_names())
          .processors(procs)
          .threads(static_cast<int>(std::thread::hardware_concurrency()))
          .run();
    }();
    round.wall_s += seconds_since(start);
    const std::size_t expected = machine_names().size() * comms * procs.size();
    outcome.check(result.ok() && result.value().rows.size() == expected,
                  "study row count");
    if (!result.ok() || result.value().rows.size() != expected) continue;
    const auto& rows = result.value().rows;
    round.rows += rows.size();
    for (int c = 0; c < kChecksPerStudy; ++c) {
      // Rows enumerate machine-major, then comm model, then P.
      const std::size_t k = rng() % rows.size();
      auto scalar = ctx.query()
                        .app(app)
                        .machine(machine_names()[k / (comms * procs.size())])
                        .comm_model(comm_model_names()[k / procs.size() % comms])
                        .processors(procs[k % procs.size()])
                        .run();
      outcome.check(scalar.ok() &&
                        same_terms(rows[k].metrics, scalar.value().terms),
                    "study row equals scalar Query::run");
    }
  }
  return round;
}

bool same_recommendation(const wave::Recommendation& a,
                         const wave::Recommendation& b) {
  return a.machine == b.machine && a.comm_model == b.comm_model &&
         a.grid_columns == b.grid_columns && a.grid_rows == b.grid_rows &&
         same_bits(a.htile, b.htile) && same_bits(a.model_us, b.model_us) &&
         a.simulated == b.simulated && same_bits(a.sim_us, b.sim_us);
}

/// The recommendation is deterministic: every search in one process must
/// reproduce the first, with the finalists simulated and ranked.
bool optimize_ok(const wave::OptimizeResult& r,
                 const wave::OptimizeResult& first) {
  if (r.finalists.empty() || r.ranking.size() != first.ranking.size() ||
      r.finalists.size() != first.finalists.size())
    return false;
  for (std::size_t i = 0; i < r.ranking.size(); ++i)
    if (!same_recommendation(r.ranking[i], first.ranking[i])) return false;
  for (std::size_t i = 0; i < r.finalists.size(); ++i) {
    if (!r.finalists[i].simulated ||
        !same_recommendation(r.finalists[i], first.finalists[i]))
      return false;
    if (i > 0 && r.finalists[i].sim_objective_value <
                     r.finalists[i - 1].sim_objective_value)
      return false;
  }
  return true;
}

}  // namespace

double run_unit(const RunConfig& config, Tracer* tracer, Outcome& outcome) {
  auto ctx = make_context();
  if (config.workload == "des-paper-scale")
    return des_point(*ctx, des_points()[1], tracer, outcome);
  std::mt19937_64 rng(config.seed);
  return sweep_round(*ctx, rng, tracer, outcome).wall_s;
}

// ---- untraced runs ---------------------------------------------------------------

namespace {

Outcome run_des(const RunConfig& config) {
  Outcome out;
  SetupTimer setup;
  auto ctx = make_context();
  double events = 0.0;
  for (const DesPoint& p : des_points()) events += static_cast<double>(p.events);
  // A pass takes ~8-13 s, varying with the box's speed, so the window sets
  // a fixed pass count instead of a deadline: one pass per 10 s.
  const int passes = std::max(1, static_cast<int>(config.seconds / 10.0));
  Rounds rounds(Clock::now());
  for (int pass = 0; pass < passes; ++pass) {
    const Clock::time_point t0 = Clock::now();
    double wall = 0.0;
    for (const DesPoint& point : des_points()) {
      setup.burst();
      wall += des_point(*ctx, point, nullptr, out);
    }
    rounds.latency(t0, wall * 1e6);
    rounds.work(t0, events, wall);
  }
  add_end_to_end(out, setup, rounds.best());
  return out;
}

Outcome run_sweep(const RunConfig& config) {
  Outcome out;
  SetupTimer setup;
  auto ctx = make_context();
  std::mt19937_64 rng(config.seed);
  const wave::Optimize job = optimize_job(*ctx, config.seed);
  std::unique_ptr<wave::OptimizeResult> first;
  const Clock::time_point start = Clock::now();
  Rounds rounds(start);
  double last = 0.0;
  do {
    setup.burst();
    const Clock::time_point iteration = Clock::now();
    const SweepRound round = sweep_round(*ctx, rng, nullptr, out);
    rounds.work(iteration, static_cast<double>(round.rows), round.wall_s);
    const Clock::time_point t0 = Clock::now();
    auto rec = job.run();
    rounds.latency(t0, micros_between(t0, Clock::now()));
    if (rec.ok() && !first)
      first = std::make_unique<wave::OptimizeResult>(rec.value());
    out.check(rec.ok() && optimize_ok(rec.value(), *first),
              "recommendation reproduces the first");
    last = seconds_since(iteration);
    // Another iteration starts while the last one would still fit.
  } while (seconds_since(start) + last <= config.seconds);
  add_end_to_end(out, setup, rounds.best());
  return out;
}

}  // namespace

Outcome run_workload(const RunConfig& config) {
  return config.workload == "des-paper-scale" ? run_des(config)
                                              : run_sweep(config);
}

}  // namespace perfbench
