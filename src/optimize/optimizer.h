// The auto-configurator's search engine (ROADMAP item 3).
//
// Inverts the paper's question: instead of "how long does this
// configuration take?" the Optimizer answers "which configuration is
// best for this job?". It scores candidates from a SearchSpace with the
// analytic model — through core::BatchEval for the wavefront pipeline
// (thousands of candidates per compiled plan), through the registered
// workload's predict() otherwise — under one of three objectives, then
// re-ranks the top-K front-runners with the discrete-event engine and
// reports the model-vs-simulation divergence per finalist.
//
// Determinism contract: with a fixed seed the recommendation list is
// byte-identical at any `threads` value. Candidates are produced in
// rounds whose composition depends only on fully-scored prior rounds
// (never on the eval budget or the schedule); scoring writes results to
// per-candidate slots; all selection is serial with a total order
// (objective value, then flat candidate index). The budget truncates a
// budget-independent candidate sequence, so a larger budget scores a
// superset of candidates and the best objective can never get worse
// (monotonicity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/app_params.h"
#include "optimize/search_space.h"
#include "topology/grid.h"
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

/// One scored configuration, resolved for reporting.
struct Scored {
  Candidate candidate;
  std::size_t flat_index = 0;  ///< index in the space (the tie-break key)
  topo::Grid grid{1, 1};
  std::string machine;     ///< resolved machine display name
  std::string comm_model;  ///< backend that evaluated the candidate
  double htile = 0.0;      ///< 0 = the app's own Htile
  double pz = 0.0;         ///< 0 = workload default
  double angle_blocks = 0.0;
  int ranks = 0;           ///< total ranks (grid cells x effective pz)
  double model_us = 0.0;   ///< predicted time per iteration
  double objective_value = 0.0;  ///< minimized
};

/// A DES-validated finalist.
struct Finalist {
  Scored scored;
  double sim_us = 0.0;  ///< simulated time per iteration
  double sim_objective_value = 0.0;
  double divergence_pct = 0.0;  ///< 100 * |model - sim| / sim
  bool within_tolerance = false;  ///< inside the workload's declared bound
};

/// The search outcome: both rankings plus coverage bookkeeping.
struct SearchResult {
  std::vector<Scored> ranking;      ///< by model objective, best first
  std::vector<Finalist> finalists;  ///< top-K re-ranked by simulated time
  std::size_t space_size = 0;
  std::size_t evaluated = 0;  ///< unique candidates the model scored
  SearchStrategy strategy_used = SearchStrategy::Exhaustive;
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

  const SearchSpace& space() const { return space_; }

  /// Runs the search. Thread-safe and repeatable: same seed, same result,
  /// at any `threads` value.
  SearchResult run() const;

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
