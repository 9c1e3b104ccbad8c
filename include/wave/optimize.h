// Fluent auto-configuration on the stable `wave::` facade.
//
// Where a Query answers "how long does this configuration take?", an
// Optimize inverts the model: "which configuration is best for this
// job?". It names a workload, an objective, and a constrained search
// space — machines (catalog names, machines/*.cfg paths, or a config
// fitted by bench/table2_calibration), an optional comm-backend override
// axis, all n x m decompositions of the requested processor counts, and
// the tunable application knobs — then searches it deterministically,
// scoring candidates with the analytic model (through the batch solver
// for the wavefront pipeline) and re-ranking the top-K front-runners
// with the discrete-event engine:
//
//   wave::Context ctx;
//   auto r = ctx.optimize()
//                .workload("sweep3d-hybrid")
//                .machines({"xt4-dual", "xt4-single"})
//                .processors({256, 512, 1024})
//                .objective(wave::Objective::MinNodeHours)
//                .run();
//   if (!r.ok()) { std::cerr << r.status().to_string() << "\n"; return 1; }
//   const wave::Recommendation& best = r.value().best();
//   std::cout << best.machine << " " << best.grid_columns << "x"
//             << best.grid_rows << "\n";
//
// Builder methods only record values; every lookup and domain check
// happens in run(), which reports problems as a Status — never an
// exception — at the facade boundary. Determinism contract: with the
// same seed the full recommendation list is byte-identical run-to-run
// and at any threads() value, and a larger budget() never yields a
// worse best objective (docs/OPTIMIZE.md).
//
// This header is self-contained: it depends only on the C++ standard
// library and wave/status.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "wave/status.h"

namespace wave {

class Context;

/// @brief What "best" means to the search.
enum class Objective {
  MinTime,       ///< minimize predicted time per iteration
  MinNodeHours,  ///< minimize time x total ranks (allocation cost)
  MaxEfficiency  ///< maximize parallel efficiency T(1) / (P * T(P))
};

/// @brief How the space is searched. Auto picks Exhaustive when the whole
///   space fits the budget (and a small-space cap), Beam otherwise.
enum class SearchStrategy { Auto, Exhaustive, Beam };

/// @brief "time" / "node-hours" / "efficiency" — the CLI vocabulary.
std::string to_string(Objective objective);
/// @brief "auto" / "exhaustive" / "beam".
std::string to_string(SearchStrategy strategy);
/// @brief Parses the CLI vocabulary; false (out untouched) on unknown
///   names — drivers print the joined valid set and exit.
bool parse_objective(const std::string& name, Objective* out);
bool parse_search_strategy(const std::string& name, SearchStrategy* out);
/// @brief The valid names joined as "a, b, c" (for fatal-error messages).
std::string objective_names_joined();
std::string search_strategy_names_joined();

/// @brief One recommended configuration. Ranking entries carry the model
///   prediction; finalists additionally carry the DES re-rank fields.
struct Recommendation {
  std::string machine;     ///< resolved machine display name
  std::string comm_model;  ///< backend that evaluated the candidate
  int grid_columns = 1;
  int grid_rows = 1;
  double htile = 0.0;         ///< effective tile height
  double pz = 0.0;            ///< 0 when the workload has no such knob
  double angle_blocks = 0.0;  ///< 0 when the workload has no such knob
  int ranks = 1;              ///< total ranks (grid cells x pz)
  double model_us = 0.0;      ///< predicted time per iteration
  double objective_value = 0.0;  ///< minimized (inverse efficiency for
                                 ///< Objective::MaxEfficiency)

  // ---- DES re-rank block (finalists only) ------------------------------
  bool simulated = false;
  double sim_us = 0.0;          ///< simulated time per iteration
  double sim_objective_value = 0.0;
  double divergence_pct = 0.0;  ///< 100 * |model - sim| / sim
  bool within_tolerance = false;  ///< inside the workload's declared bound
};

/// @brief The typed outcome of one search.
struct OptimizeResult {
  std::string workload;
  Objective objective = Objective::MinTime;
  SearchStrategy strategy = SearchStrategy::Exhaustive;  ///< actually used
  std::size_t space_size = 0;  ///< cartesian size of the search space
  std::size_t evaluated = 0;   ///< unique candidates the model scored
  std::uint64_t seed = 0;

  /// Model-ranked recommendations, best first.
  std::vector<Recommendation> ranking;
  /// Top-K front-runners re-ranked by simulated objective, best first
  /// (empty when the re-rank was disabled).
  std::vector<Recommendation> finalists;

  /// The headline answer: the best finalist when the DES re-rank ran,
  /// the best model-ranked recommendation otherwise.
  const Recommendation& best() const {
    return finalists.empty() ? ranking.front() : finalists.front();
  }
};

/// @brief Fluent builder for one configuration search. Obtain via
///   Context::optimize(); the builder stays bound to that Context (which
///   must outlive it).
class Optimize {
 public:
  /// An unbound search; run() returns kFailedPrecondition until it is
  /// obtained from a Context.
  Optimize() = default;

  // ---- the job (record only; validated in run()) -----------------------

  /// Registered workload name (default "wavefront").
  Optimize& workload(std::string name);
  /// Application preset ("sweep3d-64", "sweep3d-20m", "sweep3d-1g", "lu",
  /// "chimaera"); empty keeps the workload subsystem's canonical app.
  Optimize& app(std::string preset);
  /// Overrides the preset's measured per-cell work Wg (µs).
  Optimize& wg(double us_per_cell);
  /// Overrides the preset's data-grid size.
  Optimize& problem(double nx, double ny, double nz);

  // ---- the search space ------------------------------------------------

  /// Machine axis: catalog names or machines/*.cfg paths (a calibrated
  /// config emitted by `table2_calibration --emit-machine` plugs in
  /// here). Empty — the default — searches the whole catalog.
  Optimize& machines(std::vector<std::string> names_or_paths);
  /// Comm-backend override axis; empty keeps each machine's own choice.
  Optimize& comm_models(std::vector<std::string> names);
  /// Processor counts; the decomposition axis is every n x m divisor
  /// pair of each count. Default {256}.
  Optimize& processors(std::vector<int> counts);
  /// Tile-height axis (0 = keep the app's own Htile).
  Optimize& htiles(std::vector<double> values);
  /// pz axis for workloads with a "pz" parameter (sweep3d-hybrid);
  /// 0 = the workload's default.
  Optimize& pz(std::vector<double> values);
  /// angle-block axis for workloads with an "angle_blocks" parameter;
  /// 0 = the workload's default.
  Optimize& angle_blocks(std::vector<double> values);

  // ---- the search ------------------------------------------------------

  Optimize& objective(Objective objective);
  Optimize& strategy(SearchStrategy strategy);
  /// Max unique candidates scored with the model (0 = unlimited). A
  /// larger budget never yields a worse best objective.
  Optimize& budget(std::size_t max_evaluations);
  Optimize& beam_width(int width);
  /// Model-ranked recommendations to report (default 10).
  Optimize& ranking_size(int count);
  /// Finalists re-ranked with the DES engine (default 3; 0 disables).
  Optimize& top_k(int count);
  /// DES repetitions per finalist (results are per iteration).
  Optimize& iterations(int count);
  /// Scoring threads (0 = all cores; results are bit-identical at any
  /// value by the determinism contract).
  Optimize& threads(int count);
  Optimize& seed(std::uint64_t seed);

  /// @brief Runs the search. All name lookups resolve against the bound
  ///   Context; any internal contract violation surfaces as a Status
  ///   (kInvalidArgument / kNotFound), never an exception.
  Expected<OptimizeResult> run() const;

  // ---- introspection ---------------------------------------------------
  const Context* context() const { return ctx_; }
  const std::string& workload_name() const { return workload_; }
  const std::string& app_preset() const { return app_; }
  const std::vector<std::string>& machine_names() const { return machines_; }
  const std::vector<std::string>& comm_model_names() const {
    return comm_models_;
  }
  const std::vector<int>& processor_counts() const { return processors_; }
  Objective objective_choice() const { return objective_; }
  SearchStrategy strategy_choice() const { return strategy_; }
  std::size_t budget_limit() const { return budget_; }
  std::uint64_t seed_value() const { return seed_; }

 private:
  friend class Context;
  explicit Optimize(const Context* ctx) : ctx_(ctx) {}

  const Context* ctx_ = nullptr;
  std::string workload_ = "wavefront";
  std::string app_;
  double wg_ = 0.0;
  double nx_ = 0.0, ny_ = 0.0, nz_ = 0.0;
  std::vector<std::string> machines_;     // empty = the whole catalog
  std::vector<std::string> comm_models_;  // empty = each machine's own
  std::vector<int> processors_{256};
  std::vector<double> htiles_{0.0};
  std::vector<double> pz_{0.0};
  std::vector<double> angle_blocks_{0.0};
  Objective objective_ = Objective::MinTime;
  SearchStrategy strategy_ = SearchStrategy::Auto;
  std::size_t budget_ = 0;
  int beam_width_ = 8;
  int ranking_size_ = 10;
  int top_k_ = 3;
  int iterations_ = 1;
  int threads_ = 0;
  std::uint64_t seed_ = 2008;
};

}  // namespace wave
