#include "optimize/optimizer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/contracts.h"
#include "core/batch_solver.h"
#include "loggp/registry.h"
#include "runner/scenario.h"
#include "runner/thread_pool.h"
#include "wave/context.h"
#include "workloads/registry.h"

namespace wave::optimize {

namespace {

/// Auto picks Exhaustive when the whole space fits both this cap and the
/// caller's budget; anything larger gets the beam.
constexpr std::size_t kAutoExhaustiveLimit = 4096;

/// Safety cap on beam expansion rounds (each round scores >= 1 new
/// candidate, so this is never reached on realistic spaces).
constexpr int kMaxRounds = 1000;

/// One scored candidate in the working pool. The total order used for
/// every selection is (value, flat index): deterministic regardless of
/// the scoring schedule.
struct Entry {
  std::size_t flat = 0;
  double model_us = 0.0;
  double value = 0.0;
};

bool better(const Entry& a, const Entry& b) {
  if (a.value != b.value) return a.value < b.value;
  return a.flat < b.flat;
}

}  // namespace

Optimizer::Optimizer(const wave::Context& ctx, std::string workload,
                     core::AppParams app, SearchSpace space, Options options)
    : ctx_(&ctx),
      workload_(std::move(workload)),
      app_(std::move(app)),
      space_(std::move(space)),
      options_(options) {
  workloads::require_workload(ctx.workload_registry(), workload_);
  space_.validate();
  app_.validate();
  for (const std::string& name : space_.comm_models)
    if (!name.empty()) loggp::require_comm_model(ctx.comm_model_registry(), name);

  WAVE_EXPECTS_MSG(options_.beam_width >= 1, "beam width must be >= 1");
  WAVE_EXPECTS_MSG(options_.ranking_size >= 1, "ranking size must be >= 1");
  WAVE_EXPECTS_MSG(options_.top_k >= 0, "top-k must be >= 0");
  WAVE_EXPECTS_MSG(options_.iterations >= 1, "iterations must be >= 1");
  WAVE_EXPECTS_MSG(options_.threads >= 0, "threads must be >= 0");

  const auto wl = workloads::get_workload(ctx.workload_registry(), workload_);
  for (const workloads::ParamSpec& spec : wl->parameters()) {
    if (spec.name == "pz") {
      takes_pz_ = true;
      pz_fallback_ = spec.fallback;
    } else if (spec.name == "angle_blocks") {
      takes_angle_ = true;
      angle_fallback_ = spec.fallback;
    }
  }
  const auto is_default = [](double v) { return v == 0.0; };
  WAVE_EXPECTS_MSG(
      takes_pz_ || std::all_of(space_.pz.begin(), space_.pz.end(), is_default),
      "workload '" + workload_ + "' has no 'pz' parameter to search");
  WAVE_EXPECTS_MSG(takes_angle_ || std::all_of(space_.angle_blocks.begin(),
                                               space_.angle_blocks.end(),
                                               is_default),
                   "workload '" + workload_ +
                       "' has no 'angle_blocks' parameter to search");
}

SearchResult Optimizer::run() const {
  const std::size_t space_size = space_.size();
  const std::size_t num_comms = space_.comm_models.size();
  const auto workload =
      workloads::get_workload(ctx_->workload_registry(), workload_);
  const loggp::CommModelRegistry& registry = ctx_->comm_model_registry();

  // ---- resolved per-axis tables -----------------------------------------

  // Effective machine per (machine, comm) pair: the comm-model override
  // applied, exactly as Scenario::effective_machine does.
  std::vector<core::MachineConfig> eff(space_.machines.size() * num_comms);
  for (std::size_t m = 0; m < space_.machines.size(); ++m) {
    for (std::size_t c = 0; c < num_comms; ++c) {
      core::MachineConfig machine = space_.machines[m];
      if (!space_.comm_models[c].empty())
        machine.comm_model = space_.comm_models[c];
      eff[m * num_comms + c] = std::move(machine);
    }
  }

  // The app per htile level (0 keeps the base app's Htile).
  std::vector<core::AppParams> apps(space_.htiles.size());
  for (std::size_t h = 0; h < space_.htiles.size(); ++h) {
    apps[h] = app_;
    if (space_.htiles[h] > 0.0) apps[h].htile = space_.htiles[h];
    apps[h].validate();
  }

  // The wavefront pipeline scores through the compiled batch plan; every
  // other workload goes through its own predict() with a pre-built
  // backend per effective machine.
  const bool batch_path = workload_ == "wavefront";
  std::unique_ptr<core::BatchEval> plan;
  std::vector<std::uint32_t> plan_apps, plan_machines;
  std::vector<std::shared_ptr<const loggp::CommModel>> backends;
  if (batch_path) {
    plan = std::make_unique<core::BatchEval>(registry);
    for (const core::AppParams& a : apps) plan_apps.push_back(plan->add_app(a));
    for (const core::MachineConfig& m : eff)
      plan_machines.push_back(plan->add_machine(m));
  } else {
    for (const core::MachineConfig& m : eff)
      backends.push_back(m.make_comm_model(registry));
  }

  const auto effective_pz = [&](const Candidate& c) {
    if (!takes_pz_) return 1.0;
    const double v = space_.pz[c.pz];
    return v > 0.0 ? v : pz_fallback_;
  };
  const auto candidate_ranks = [&](const Candidate& c) {
    return static_cast<int>(space_.decompositions[c.decomp].size() *
                            effective_pz(c));
  };

  const auto scalar_inputs = [&](const Candidate& c) {
    workloads::WorkloadInputs in;
    in.app = apps[c.htile];
    in.grid = space_.decompositions[c.decomp];
    if (takes_pz_ && space_.pz[c.pz] > 0.0) in.params["pz"] = space_.pz[c.pz];
    if (takes_angle_ && space_.angle_blocks[c.angle] > 0.0)
      in.params["angle_blocks"] = space_.angle_blocks[c.angle];
    return in;
  };

  const auto model_time = [&](const Candidate& c,
                              core::BatchScratch& scratch) {
    const std::size_t mc = c.machine * num_comms + c.comm;
    if (batch_path) {
      core::BatchPoint point{plan_apps[c.htile],
                             plan_machines[mc],
                             space_.decompositions[c.decomp]};
      core::ModelResult res;
      plan->evaluate_point(point, scratch, res);
      return res.iteration.total;
    }
    return workload->predict(eff[mc], *backends[mc], scalar_inputs(c)).time_us;
  };

  // ---- serial baseline T(1) for the efficiency objective ----------------
  // Keyed by every axis except the decomposition (evaluated at a 1x1 grid
  // with pz forced serial); precomputed so candidate scoring stays a pure
  // function of the candidate. These probes are bookkeeping, not part of
  // the eval budget.
  runner::ThreadPool pool(options_.threads);
  std::vector<double> t1;
  const std::size_t t1_stride_a = space_.angle_blocks.size();
  const std::size_t t1_stride_h = space_.htiles.size() * t1_stride_a;
  if (options_.objective == Objective::MaxEfficiency) {
    t1.assign(eff.size() * t1_stride_h, 0.0);
    pool.for_each_index(t1.size(), [&](std::size_t k) {
      thread_local core::BatchScratch scratch;
      const std::size_t mc = k / t1_stride_h;
      const std::size_t h = (k % t1_stride_h) / t1_stride_a;
      const std::size_t a = k % t1_stride_a;
      if (batch_path) {
        core::BatchPoint point{plan_apps[h], plan_machines[mc],
                               topo::Grid(1, 1)};
        core::ModelResult res;
        plan->evaluate_point(point, scratch, res);
        t1[k] = res.iteration.total;
      } else {
        workloads::WorkloadInputs in;
        in.app = apps[h];
        in.grid = topo::Grid(1, 1);
        if (takes_pz_) in.params["pz"] = 1.0;
        if (takes_angle_ && space_.angle_blocks[a] > 0.0)
          in.params["angle_blocks"] = space_.angle_blocks[a];
        t1[k] = workload->predict(eff[mc], *backends[mc], in).time_us;
      }
    });
  }

  const auto objective_value = [&](double time_us, const Candidate& c) {
    const int ranks = candidate_ranks(c);
    switch (options_.objective) {
      case Objective::MinTime:
        return time_us;
      case Objective::MinNodeHours:
        return time_us * ranks;
      case Objective::MaxEfficiency: {
        const std::size_t mc = c.machine * num_comms + c.comm;
        const double serial =
            t1[mc * t1_stride_h + c.htile * t1_stride_a + c.angle];
        // Inverse efficiency P*T(P)/T(1), minimized. A degenerate zero
        // serial time falls back to plain node-hours.
        return serial > 0.0 ? ranks * time_us / serial : time_us * ranks;
      }
    }
    return time_us;
  };

  // ---- the deterministic scoring loop -----------------------------------

  std::vector<Entry> scored;          // every scored candidate, in order
  std::unordered_set<std::size_t> seen;  // enqueued flat indices
  bool budget_hit = false;

  // Scores `flats` (already deduped against `seen` by the caller) into
  // per-candidate slots, truncating at the budget. Returns false once the
  // budget is exhausted — the caller must stop generating rounds so the
  // scored set stays a prefix of the budget-independent sequence.
  const auto score_round = [&](const std::vector<std::size_t>& flats) {
    std::size_t take = flats.size();
    if (options_.budget > 0) {
      const std::size_t left = options_.budget - scored.size();
      if (take >= left) {
        take = left;
        budget_hit = true;
      }
    }
    std::vector<Entry> results(take);
    pool.for_each_index(take, [&](std::size_t i) {
      thread_local core::BatchScratch scratch;
      const Candidate c = space_.at(flats[i]);
      const double time_us = model_time(c, scratch);
      results[i] = Entry{flats[i], time_us, objective_value(time_us, c)};
    });
    scored.insert(scored.end(), results.begin(), results.end());
    return !budget_hit;
  };

  // Appends `flat` to `round` once (dedup against everything enqueued).
  const auto enqueue = [&](std::size_t flat, std::vector<std::size_t>* round) {
    if (seen.insert(flat).second) round->push_back(flat);
  };

  SearchStrategy strategy = options_.strategy;
  if (strategy == SearchStrategy::Auto) {
    const bool small =
        space_size <= kAutoExhaustiveLimit &&
        (options_.budget == 0 || space_size <= options_.budget);
    strategy = small ? SearchStrategy::Exhaustive : SearchStrategy::Beam;
  }

  if (strategy == SearchStrategy::Exhaustive) {
    std::vector<std::size_t> all(space_size);
    for (std::size_t k = 0; k < space_size; ++k) all[k] = k;
    seen.insert(all.begin(), all.end());
    score_round(all);
  } else {
    // ---- seeding round: heuristic + seeded random sample ----------------
    std::vector<std::size_t> round;
    // Heuristic seeds: per distinct processor count, the decomposition
    // closest to square (the benchmarks' default choice), crossed with
    // every machine x comm pair at the middle of the app-knob axes.
    std::vector<int> counts;
    std::vector<std::size_t> square_decomp;
    for (std::size_t d = 0; d < space_.decompositions.size(); ++d) {
      const topo::Grid& g = space_.decompositions[d];
      const auto it = std::find(counts.begin(), counts.end(), g.size());
      const topo::Grid best_square = topo::closest_to_square(g.size());
      if (it == counts.end()) {
        counts.push_back(g.size());
        square_decomp.push_back(d);
      } else if (g.n() == best_square.n() && g.m() == best_square.m()) {
        square_decomp[static_cast<std::size_t>(it - counts.begin())] = d;
      }
    }
    for (std::size_t m = 0; m < space_.machines.size(); ++m) {
      for (std::size_t c = 0; c < num_comms; ++c) {
        for (std::size_t d : square_decomp) {
          Candidate seed_c;
          seed_c.machine = static_cast<std::uint32_t>(m);
          seed_c.comm = static_cast<std::uint32_t>(c);
          seed_c.decomp = static_cast<std::uint32_t>(d);
          seed_c.htile = static_cast<std::uint32_t>(space_.htiles.size() / 2);
          seed_c.pz = static_cast<std::uint32_t>(space_.pz.size() / 2);
          seed_c.angle =
              static_cast<std::uint32_t>(space_.angle_blocks.size() / 2);
          enqueue(space_.index_of(seed_c), &round);
        }
      }
    }
    // Seeded random sample: splitmix64-derived draws, platform-stable.
    const std::size_t draws =
        std::max<std::size_t>(static_cast<std::size_t>(options_.beam_width) * 4,
                              32);
    for (std::size_t i = 0; i < draws; ++i)
      enqueue(runner::derive_seed(options_.seed, i) % space_size, &round);

    // ---- beam expansion rounds ------------------------------------------
    // Round composition depends only on the fully-scored pool, never on
    // the budget: once the budget truncates a round, the search stops.
    bool more = score_round(round);
    for (int r = 0; more && r < kMaxRounds; ++r) {
      std::vector<Entry> frontier = scored;
      std::stable_sort(frontier.begin(), frontier.end(), better);
      if (frontier.size() > static_cast<std::size_t>(options_.beam_width))
        frontier.resize(static_cast<std::size_t>(options_.beam_width));
      round.clear();
      for (const Entry& e : frontier)
        for (const Candidate& n : space_.neighbors(space_.at(e.flat)))
          enqueue(space_.index_of(n), &round);
      if (round.empty()) break;
      more = score_round(round);
    }

    // ---- coordinate-descent refinement ----------------------------------
    // Full single-axis scans around the incumbent until a whole pass
    // leaves it unchanged (or the budget runs out).
    for (int r = 0; more && r < kMaxRounds; ++r) {
      const Entry before =
          *std::min_element(scored.begin(), scored.end(), better);
      for (int axis = 0; axis < 6 && more; ++axis) {
        const Entry incumbent =
            *std::min_element(scored.begin(), scored.end(), better);
        const Candidate base = space_.at(incumbent.flat);
        const std::size_t extent =
            axis == 0   ? space_.machines.size()
            : axis == 1 ? num_comms
            : axis == 2 ? space_.decompositions.size()
            : axis == 3 ? space_.htiles.size()
            : axis == 4 ? space_.pz.size()
                        : space_.angle_blocks.size();
        round.clear();
        for (std::size_t v = 0; v < extent; ++v) {
          Candidate c = base;
          switch (axis) {
            case 0: c.machine = static_cast<std::uint32_t>(v); break;
            case 1: c.comm = static_cast<std::uint32_t>(v); break;
            case 2: c.decomp = static_cast<std::uint32_t>(v); break;
            case 3: c.htile = static_cast<std::uint32_t>(v); break;
            case 4: c.pz = static_cast<std::uint32_t>(v); break;
            default: c.angle = static_cast<std::uint32_t>(v); break;
          }
          enqueue(space_.index_of(c), &round);
        }
        if (!round.empty()) more = score_round(round);
      }
      const Entry after =
          *std::min_element(scored.begin(), scored.end(), better);
      if (!better(after, before)) break;
    }
  }

  // ---- rankings ---------------------------------------------------------

  SearchResult out;
  out.space_size = space_size;
  out.evaluated = scored.size();
  out.strategy_used = strategy;

  std::stable_sort(scored.begin(), scored.end(), better);
  const std::size_t top =
      std::min<std::size_t>(scored.size(),
                            static_cast<std::size_t>(options_.ranking_size));
  const auto resolve = [&](const Entry& e) {
    const Candidate c = space_.at(e.flat);
    Scored s;
    s.candidate = c;
    s.flat_index = e.flat;
    s.grid = space_.decompositions[c.decomp];
    s.machine = eff[c.machine * num_comms + c.comm].name;
    s.comm_model = eff[c.machine * num_comms + c.comm].comm_model;
    s.htile = apps[c.htile].htile;
    s.pz = takes_pz_ ? effective_pz(c) : 0.0;
    s.angle_blocks =
        takes_angle_ ? (space_.angle_blocks[c.angle] > 0.0
                            ? space_.angle_blocks[c.angle]
                            : angle_fallback_)
                     : 0.0;
    s.ranks = candidate_ranks(c);
    s.model_us = e.model_us;
    s.objective_value = e.value;
    return s;
  };
  for (std::size_t k = 0; k < top; ++k) out.ranking.push_back(resolve(scored[k]));

  // ---- DES re-rank of the finalists -------------------------------------
  if (options_.top_k > 0 && !out.ranking.empty()) {
    const std::size_t k_final = std::min<std::size_t>(
        out.ranking.size(), static_cast<std::size_t>(options_.top_k));
    std::vector<Finalist> finalists(k_final);
    pool.for_each_index(k_final, [&](std::size_t i) {
      const Scored& s = out.ranking[i];
      workloads::WorkloadInputs in = scalar_inputs(s.candidate);
      in.iterations = options_.iterations;
      const workloads::SimOutput sim = workload->simulate(
          eff[s.candidate.machine * num_comms + s.candidate.comm], registry,
          in);
      Finalist f;
      f.scored = s;
      f.sim_us = sim.time_us;
      f.sim_objective_value =
          objective_value(sim.time_us, s.candidate);
      f.divergence_pct = sim.time_us > 0.0
                             ? 100.0 * std::abs(s.model_us - sim.time_us) /
                                   sim.time_us
                             : 0.0;
      f.within_tolerance =
          f.divergence_pct <= 100.0 * workload->tolerance();
      finalists[i] = std::move(f);
    });
    std::stable_sort(finalists.begin(), finalists.end(),
                     [](const Finalist& a, const Finalist& b) {
                       if (a.sim_objective_value != b.sim_objective_value)
                         return a.sim_objective_value < b.sim_objective_value;
                       return a.scored.flat_index < b.scored.flat_index;
                     });
    out.finalists = std::move(finalists);
  }
  return out;
}

}  // namespace wave::optimize
