#include "wave/optimize.h"

#include <cstddef>
#include <utility>

#include "api/api_internal.h"
#include "common/contracts.h"
#include "optimize/optimizer.h"
#include "optimize/search_space.h"
#include "wave/context.h"

namespace wave {

namespace {

/// A facade enum value and its CLI name.
template <typename E>
struct Named {
  E value;
  const char* name;
};

constexpr Named<Objective> kObjectives[] = {
    {Objective::MinTime, "time"},
    {Objective::MinNodeHours, "node-hours"},
    {Objective::MaxEfficiency, "efficiency"},
};

constexpr Named<SearchStrategy> kStrategies[] = {
    {SearchStrategy::Auto, "auto"},
    {SearchStrategy::Exhaustive, "exhaustive"},
    {SearchStrategy::Beam, "beam"},
};

template <typename E, std::size_t N>
std::string name_of(const Named<E> (&table)[N], E value) {
  for (const Named<E>& e : table)
    if (e.value == value) return e.name;
  return table[0].name;
}

template <typename E, std::size_t N>
bool parse(const Named<E> (&table)[N], const std::string& name, E* out) {
  for (const Named<E>& e : table) {
    if (name == e.name) {
      *out = e.value;
      return true;
    }
  }
  return false;
}

template <typename E, std::size_t N>
std::string joined(const Named<E> (&table)[N]) {
  std::string out;
  for (const Named<E>& e : table)
    out += (out.empty() ? "" : ", ") + std::string(e.name);
  return out;
}

}  // namespace

std::string to_string(Objective objective) {
  return name_of(kObjectives, objective);
}

std::string to_string(SearchStrategy strategy) {
  return name_of(kStrategies, strategy);
}

bool parse_objective(const std::string& name, Objective* out) {
  return parse(kObjectives, name, out);
}

bool parse_search_strategy(const std::string& name, SearchStrategy* out) {
  return parse(kStrategies, name, out);
}

std::string objective_names_joined() { return joined(kObjectives); }

std::string search_strategy_names_joined() { return joined(kStrategies); }

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
    core::AppParams app = api::resolve_app(app_, wg_, nx_, ny_, nz_);

    // ---- the search ------------------------------------------------------
    optimize::Options options;
    options.objective = objective_;
    options.strategy = strategy_;
    options.budget = budget_;
    options.beam_width = beam_width_;
    options.ranking_size = ranking_size_;
    options.top_k = top_k_;
    options.iterations = iterations_;
    options.threads = threads_;
    options.seed = seed_;

    const optimize::Optimizer optimizer(*ctx_, workload_, std::move(app),
                                        std::move(space), options);
    OptimizeResult out = optimizer.run();
    WAVE_EXPECTS_MSG(!out.ranking.empty(),
                     "search produced no scored candidates");
    return out;
  } catch (const std::exception& e) {
    return api::to_status(e);
  }
}

}  // namespace wave
