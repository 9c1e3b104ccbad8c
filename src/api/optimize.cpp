#include "wave/optimize.h"

#include <utility>

#include "api/api_internal.h"
#include "common/contracts.h"
#include "optimize/optimizer.h"
#include "optimize/search_space.h"
#include "wave/context.h"
#include "workloads/workload.h"

namespace wave {

namespace {

optimize::Objective to_internal(Objective objective) {
  switch (objective) {
    case Objective::MinTime: return optimize::Objective::MinTime;
    case Objective::MinNodeHours: return optimize::Objective::MinNodeHours;
    case Objective::MaxEfficiency: return optimize::Objective::MaxEfficiency;
  }
  return optimize::Objective::MinTime;
}

optimize::Strategy to_internal(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::Auto: return optimize::Strategy::Auto;
    case SearchStrategy::Exhaustive: return optimize::Strategy::Exhaustive;
    case SearchStrategy::Beam: return optimize::Strategy::Beam;
  }
  return optimize::Strategy::Auto;
}

SearchStrategy from_internal(optimize::Strategy strategy) {
  switch (strategy) {
    case optimize::Strategy::Auto: return SearchStrategy::Auto;
    case optimize::Strategy::Exhaustive: return SearchStrategy::Exhaustive;
    case optimize::Strategy::Beam: return SearchStrategy::Beam;
  }
  return SearchStrategy::Auto;
}

Recommendation recommendation_from(const optimize::Scored& s) {
  Recommendation r;
  r.machine = s.machine;
  r.comm_model = s.comm_model;
  r.grid_columns = s.grid.n();
  r.grid_rows = s.grid.m();
  r.htile = s.htile;
  r.pz = s.pz;
  r.angle_blocks = s.angle_blocks;
  r.ranks = s.ranks;
  r.model_us = s.model_us;
  r.objective_value = s.objective_value;
  return r;
}

}  // namespace

std::string to_string(Objective objective) {
  return optimize::to_string(to_internal(objective));
}

std::string to_string(SearchStrategy strategy) {
  return optimize::to_string(to_internal(strategy));
}

bool parse_objective(const std::string& name, Objective* out) {
  optimize::Objective internal;
  if (!optimize::parse_objective(name, &internal)) return false;
  switch (internal) {
    case optimize::Objective::MinTime: *out = Objective::MinTime; break;
    case optimize::Objective::MinNodeHours:
      *out = Objective::MinNodeHours;
      break;
    case optimize::Objective::MaxEfficiency:
      *out = Objective::MaxEfficiency;
      break;
  }
  return true;
}

bool parse_search_strategy(const std::string& name, SearchStrategy* out) {
  optimize::Strategy internal;
  if (!optimize::parse_strategy(name, &internal)) return false;
  *out = from_internal(internal);
  return true;
}

std::string objective_names_joined() {
  return optimize::objective_names_joined();
}

std::string search_strategy_names_joined() {
  return optimize::strategy_names_joined();
}

Optimize& Optimize::workload(std::string name) {
  workload_ = std::move(name);
  return *this;
}

Optimize& Optimize::app(std::string preset) {
  app_ = std::move(preset);
  return *this;
}

Optimize& Optimize::wg(double us_per_cell) {
  wg_ = us_per_cell;
  return *this;
}

Optimize& Optimize::problem(double nx, double ny, double nz) {
  nx_ = nx;
  ny_ = ny;
  nz_ = nz;
  return *this;
}

Optimize& Optimize::machines(std::vector<std::string> names_or_paths) {
  machines_ = std::move(names_or_paths);
  return *this;
}

Optimize& Optimize::comm_models(std::vector<std::string> names) {
  comm_models_ = std::move(names);
  return *this;
}

Optimize& Optimize::processors(std::vector<int> counts) {
  processors_ = std::move(counts);
  return *this;
}

Optimize& Optimize::htiles(std::vector<double> values) {
  htiles_ = std::move(values);
  return *this;
}

Optimize& Optimize::pz(std::vector<double> values) {
  pz_ = std::move(values);
  return *this;
}

Optimize& Optimize::angle_blocks(std::vector<double> values) {
  angle_blocks_ = std::move(values);
  return *this;
}

Optimize& Optimize::objective(Objective objective) {
  objective_ = objective;
  return *this;
}

Optimize& Optimize::strategy(SearchStrategy strategy) {
  strategy_ = strategy;
  return *this;
}

Optimize& Optimize::budget(std::size_t max_evaluations) {
  budget_ = max_evaluations;
  return *this;
}

Optimize& Optimize::beam_width(int width) {
  beam_width_ = width;
  return *this;
}

Optimize& Optimize::ranking_size(int count) {
  ranking_size_ = count;
  return *this;
}

Optimize& Optimize::top_k(int count) {
  top_k_ = count;
  return *this;
}

Optimize& Optimize::iterations(int count) {
  iterations_ = count;
  return *this;
}

Optimize& Optimize::threads(int count) {
  threads_ = count;
  return *this;
}

Optimize& Optimize::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

Expected<OptimizeResult> Optimize::run() const {
  if (ctx_ == nullptr)
    return Status::failed_precondition(
        "optimize is not bound to a Context (obtain it via "
        "Context::optimize())");
  try {
    // ---- the search space ----------------------------------------------
    optimize::SearchSpace space;
    if (machines_.empty()) {
      // The default machine axis is the whole catalog, in registration
      // order (so a fitted config added to the context competes with the
      // presets automatically).
      for (const EntryInfo& info : ctx_->machines())
        space.machines.push_back(ctx_->resolve_machine(info.name));
    } else {
      for (const std::string& name : machines_)
        space.machines.push_back(ctx_->resolve_machine(name));
    }
    space.comm_models =
        comm_models_.empty() ? std::vector<std::string>{""} : comm_models_;
    WAVE_EXPECTS_MSG(!processors_.empty(),
                     "processors axis must name >= 1 count");
    for (int p : processors_)
      WAVE_EXPECTS_MSG(p >= 1, "processor counts must be >= 1");
    space.decompositions = optimize::decompositions_for(processors_);
    space.htiles = htiles_.empty() ? std::vector<double>{0.0} : htiles_;
    space.pz = pz_.empty() ? std::vector<double>{0.0} : pz_;
    space.angle_blocks =
        angle_blocks_.empty() ? std::vector<double>{0.0} : angle_blocks_;

    // ---- the application (same preset/override rules as Query) ----------
    core::AppParams app;
    if (!app_.empty()) app = api::app_preset(app_);
    if (wg_ > 0.0) {
      if (app.nx <= 0.0) app = workloads::WorkloadInputs::default_app();
      app.wg = wg_;
    }
    if (nx_ > 0.0) {
      if (app.nx <= 0.0) app = workloads::WorkloadInputs::default_app();
      app.nx = nx_;
      app.ny = ny_;
      app.nz = nz_;
    }
    if (app.nx <= 0.0) app = workloads::WorkloadInputs::default_app();

    // ---- the search ------------------------------------------------------
    optimize::Options options;
    options.objective = to_internal(objective_);
    options.strategy = to_internal(strategy_);
    options.budget = budget_;
    options.beam_width = beam_width_;
    options.ranking_size = ranking_size_;
    options.top_k = top_k_;
    options.rerank = top_k_ > 0;
    options.iterations = iterations_;
    options.threads = threads_;
    options.seed = seed_;

    const optimize::Optimizer optimizer(*ctx_, workload_, std::move(app),
                                        std::move(space), options);
    const optimize::SearchResult found = optimizer.run();

    // ---- the typed result ------------------------------------------------
    OptimizeResult out;
    out.workload = workload_;
    out.objective = objective_;
    out.strategy = from_internal(found.strategy_used);
    out.space_size = found.space_size;
    out.evaluated = found.evaluated;
    out.seed = seed_;
    for (const optimize::Scored& s : found.ranking)
      out.ranking.push_back(recommendation_from(s));
    for (const optimize::Finalist& f : found.finalists) {
      Recommendation r = recommendation_from(f.scored);
      r.simulated = true;
      r.sim_us = f.sim_us;
      r.sim_objective_value = f.sim_objective_value;
      r.divergence_pct = f.divergence_pct;
      r.within_tolerance = f.within_tolerance;
      out.finalists.push_back(std::move(r));
    }
    WAVE_EXPECTS_MSG(!out.ranking.empty(),
                     "search produced no scored candidates");
    return out;
  } catch (const std::exception& e) {
    return api::to_status(e);
  }
}

}  // namespace wave
