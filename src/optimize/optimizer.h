// The auto-configurator's search engine (ROADMAP item 3).
//
// Inverts the paper's question: instead of "how long does this
// configuration take?" the Optimizer answers "which configuration is
// best for this job?". It only searches: each round of candidates from a
// SearchSpace becomes a list of runner::Scenario points that
// runner::BatchRunner evaluates — the one module that decides how a
// point is evaluated (the batch solver for the wavefront pipeline, the
// registered workload's predict() otherwise). Candidates are ranked
// under one of three objectives, then the top-K front-runners are
// re-ranked with the discrete-event engine (the same runner, with the
// Simulation engine) and each finalist reports its model-vs-simulation
// divergence.
//
// Determinism contract: with a fixed seed the recommendation list is
// byte-identical at any `threads` value. Candidates are produced in
// rounds whose composition depends only on fully-scored prior rounds
// (never on the eval budget or the schedule); the runner returns records
// in point order; all selection is serial with a total order (objective
// value, then flat candidate index). The budget truncates a
// budget-independent candidate sequence, so a larger budget scores a
// superset of candidates and the best objective can never get worse
// (monotonicity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/app_params.h"
#include "optimize/search_space.h"
#include "wave/optimize.h"

namespace wave {
class Context;
}  // namespace wave

namespace wave::optimize {

/// Search options. Defaults give a deterministic beam search with a
/// model-ranked top-10 and a DES re-rank of the top 3.
struct Options {
  Objective objective = Objective::MinTime;  ///< all minimized internally
  SearchStrategy strategy = SearchStrategy::Auto;
  /// Max unique candidates scored with the model (0 = unlimited). The
  /// budget truncates the deterministic candidate sequence, so larger
  /// budgets always score a superset (monotonicity).
  std::size_t budget = 0;
  int beam_width = 8;    ///< frontier kept per expansion round
  int ranking_size = 10;  ///< model-ranked recommendations reported
  int top_k = 3;          ///< finalists re-ranked with the DES engine
  int iterations = 1;     ///< DES repetitions per finalist
  int threads = 0;        ///< scoring threads (0 = all cores)
  std::uint64_t seed = 2008;  ///< beam sampling seed
};

/// The search engine. Binds a context (registries), a workload, the base
/// application and a validated SearchSpace; run() is const and performs
/// the whole search.
class Optimizer {
 public:
  /// @throws common::contract_error when the workload is unknown, the
  ///   space is invalid, a comm-model name is unregistered, a pz/angle
  ///   axis targets a workload without that parameter, or an option is
  ///   out of domain. `ctx` must outlive the optimizer.
  Optimizer(const wave::Context& ctx, std::string workload,
            core::AppParams app, SearchSpace space, Options options);

  /// Runs the search: the model ranking, the DES-re-ranked finalists and
  /// the coverage bookkeeping. Thread-safe and repeatable: same seed,
  /// same result, at any `threads` value.
  OptimizeResult run() const;

 private:
  const wave::Context* ctx_;
  std::string workload_;
  core::AppParams app_;
  SearchSpace space_;
  Options options_;
  double pz_fallback_ = 1.0;     ///< schema default when the axis says 0
  double angle_fallback_ = 0.0;  ///< 0 = workload has no such knob
  bool takes_pz_ = false;
  bool takes_angle_ = false;
};

}  // namespace wave::optimize
