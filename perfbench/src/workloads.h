// The benchmark's workloads (des-paper-scale, what-if-sweep), the query
// mix and wave-serve rig the traced run drives, and the vocabulary they
// share.
//
// Everything drives the wave library through the public facade
// (wave::Context, Query, Study, Optimize, EvalService) or, for the serve
// layer, an in-process serve::Server over AF_UNIX. Inputs come only from
// the run's seed; the library sees nothing but the generated queries and
// requests.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "harness.h"
#include "wave/serve.h"
#include "wave/wave.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Directory for the run's files (server socket, snapshot, span dump).
  std::string scratch = ".";
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// A Context with the preset machines plus machines/*.cfg (5 machines).
/// Throws std::runtime_error when the catalog cannot be loaded.
std::unique_ptr<wave::Context> make_context();

const std::vector<std::string>& app_presets();
const std::vector<std::string>& machine_names();
const std::vector<std::string>& comm_model_names();

/// Bitwise equality of two Results (doubles compared by their bits).
bool same_result(const wave::Result& a, const wave::Result& b);

// ---- des-paper-scale ---------------------------------------------------------

/// One validated point with the simulated outputs the benchmark records:
/// a pure speed change to the simulator must reproduce them exactly.
struct DesPoint {
  int processors;
  double sim_us;
  double model_us;
  std::uint64_t events;
  std::uint64_t messages;
};
const std::vector<DesPoint>& des_points();
/// Sweep3D on a shallow 256 x 256 x 8 grid, xt4-dual, validate().
wave::Query des_query(const wave::Context& ctx, int processors);

// ---- the query mix and the wave-serve rig (api and serve layers) ------------------

/// The analytic query universe (apps x machines x comm models x P <=
/// 16,384) ordered by a seeded popularity ranking, with Zipf draws over
/// the ranks. The hot set heading the ranking is one app's points (one
/// Study's worth), so set-up can warm it with EvalService::warm.
class QueryMix {
 public:
  struct Item {
    std::string app, machine, comm_model;
    int processors = 1;
    bool des = false;  ///< a small DES evaluation (the serve stream only)
  };

  /// `des_share` > 0 mixes that share of small DES items into the draws.
  explicit QueryMix(std::uint64_t seed, double des_share = 0.0);

  std::size_t size() const { return items_.size(); }
  /// The next seeded draw.
  std::size_t draw();

  wave::Query query(const wave::Context& ctx, std::size_t i) const;
  /// The wave-serve `eval` request line for item `i`.
  std::string request_line(std::size_t i, const std::string& id) const;
  /// The hot set as a Study (one app over every machine, comm model, P).
  wave::Study hot_study(const wave::Context& ctx) const;
  std::size_t hot_size() const { return hot_size_; }

  static constexpr double kZipfExponent = 1.1;
  /// EvalService capacity: below the ~2,000-point working set, so cache
  /// generation resets happen during a run.
  static constexpr std::size_t kCacheCapacity = 1536;

 private:
  std::vector<Item> items_;  // popularity order; DES items appended last
  std::vector<double> cdf_;  // Zipf over the analytic ranks
  std::size_t analytic_ = 0;
  std::size_t hot_size_ = 0;
  std::string hot_app_;
  double des_share_;
  std::mt19937_64 rng_;
};

/// An in-process serve::Server with two workers, driven over its AF_UNIX
/// socket by one sender and one receiver thread (with the workers, four
/// busy threads). Its socket and cache snapshot live in the scratch
/// directory.
class ServeRig {
 public:
  static constexpr int kWorkers = 2;
  /// Offered load of the open loop, requests per second: below capacity.
  static constexpr double kRate = 4000.0;
  /// Share of small DES evaluations in the stream.
  static constexpr double kDesShare = 0.01;

  ServeRig(const wave::Context& ctx, const std::string& scratch);
  ~ServeRig();  ///< stops the server
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  /// Starts the server and connects the stream client.
  wave::Status start();
  /// Closed-loop evaluation of the mix's hot set (fills the cache).
  void warm(const QueryMix& mix, Outcome& outcome);

  struct Stream {
    std::vector<double> latency_us;  ///< from each request's due time
    std::vector<double> late_us;     ///< sender lateness per request
  };
  /// Open loop at kRate for `seconds`; every response is checked against
  /// serve::render_result of the in-process result.
  Stream stream(QueryMix& mix, double seconds, Tracer* tracer,
                Outcome& outcome);

  /// One control request on a fresh connection (metrics, snapshot, ...).
  std::string control(const std::string& line);
  wave::ServeStats stats() const;
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- what-if-sweep pieces ----------------------------------------------------------

/// The dense P axis of the what-if grid: 64 to 65,536, eight per octave.
const std::vector<int>& sweep_processors();
/// The seeded beam search over the what-if machines and comm models at
/// P in {256, 512, 1024} (top-3 DES re-rank unless top_k() says otherwise).
wave::Optimize optimize_job(const wave::Context& ctx, std::uint64_t seed);

// ---- the query mix's closed loop ---------------------------------------------------

/// Cold Query::run() results, computed on first use, that every served
/// result must equal bit for bit.
class MixReference {
 public:
  explicit MixReference(std::size_t size) : results_(size) {}
  bool matches(const wave::Query& query, std::size_t i,
               const wave::Result& got);

 private:
  std::vector<std::unique_ptr<wave::Result>> results_;
};

/// Everything the closed loop needs before its first evaluate(): the
/// catalog, the query universe, and an EvalService warmed with the hot set.
/// (Members are declared so the service dies before the Context.)
struct MixSetup {
  std::unique_ptr<wave::Context> ctx;
  std::unique_ptr<QueryMix> mix;
  std::vector<wave::Query> queries;
  std::unique_ptr<wave::EvalService> service;
};
MixSetup mix_setup(std::uint64_t seed, Outcome& outcome);

/// One caller in a closed loop for `seconds`: seeded draws through
/// EvalService::evaluate, each traced as a request and checked.
void mix_loop(MixSetup& s, MixReference& reference, double seconds,
              Tracer* tracer, Outcome& outcome);

// ---- runs ------------------------------------------------------------------------

/// One untraced run of `config.workload`: the end-to-end metrics.
Outcome run_workload(const RunConfig& config);

/// One fixed unit of the workload's work (what trace.overhead_pct compares
/// traced and untraced): the P = 4,096 DES point through the facade, or a
/// sweep round. Returns its wall seconds; output checks land in `outcome`.
double run_unit(const RunConfig& config, Tracer* tracer, Outcome& outcome);

/// The traced run: every per-layer metric (layers.cpp).
Outcome run_layers(const RunConfig& config);

}  // namespace perfbench
