#include "optimize/optimizer.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "loggp/registry.h"
#include "runner/batch_runner.h"
#include "runner/scenario.h"
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
  double time_us = 0.0;
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
  ctx.workload_registry().require(workload_);
  space_.validate();
  app_.validate();
  for (const std::string& name : space_.comm_models)
    if (!name.empty()) ctx.comm_model_registry().require(name);

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

OptimizeResult Optimizer::run() const {
  const std::size_t space_size = space_.size();
  const std::size_t num_comms = space_.comm_models.size();
  const runner::BatchRunner runner(
      *ctx_, runner::BatchRunner::Options(options_.threads));

  // The app per htile level (0 keeps the base app's Htile).
  std::vector<core::AppParams> apps(space_.htiles.size());
  for (std::size_t h = 0; h < space_.htiles.size(); ++h) {
    apps[h] = app_;
    if (space_.htiles[h] > 0.0) apps[h].htile = space_.htiles[h];
    apps[h].validate();
  }

  // The point a candidate names. A 0 on the pz/angle axes leaves the
  // workload's default, so only the set knobs become parameters.
  const auto scenario = [&](const Candidate& c) {
    runner::Scenario s;
    s.workload = workload_;
    s.app = apps[c.htile];
    s.machine = space_.machines[c.machine];
    s.comm_model = space_.comm_models[c.comm];
    s.grid = space_.decompositions[c.decomp];
    if (takes_pz_ && space_.pz[c.pz] > 0.0) s.params["pz"] = space_.pz[c.pz];
    if (takes_angle_ && space_.angle_blocks[c.angle] > 0.0)
      s.params["angle_blocks"] = space_.angle_blocks[c.angle];
    return s;
  };

  // Each point's headline time per iteration: its first metric, the same
  // convention the facade's query results use.
  const auto headline = [&](const std::vector<runner::Scenario>& points) {
    std::vector<double> out;
    out.reserve(points.size());
    for (const runner::RunRecord& r : runner.run(points))
      out.push_back(r.metrics.front().second);
    return out;
  };

  const auto effective_pz = [&](const Candidate& c) {
    if (!takes_pz_) return 1.0;
    const double v = space_.pz[c.pz];
    return v > 0.0 ? v : pz_fallback_;
  };
  const auto candidate_ranks = [&](const Candidate& c) {
    return static_cast<int>(space_.decompositions[c.decomp].size() *
                            effective_pz(c));
  };

  // ---- serial baseline T(1) for the efficiency objective ----------------
  // Keyed by every axis except the decomposition (evaluated at a 1x1 grid
  // with pz forced serial); precomputed so candidate scoring stays a pure
  // function of the candidate. These probes are bookkeeping, not part of
  // the eval budget.
  std::vector<double> t1;
  const std::size_t t1_stride_a = space_.angle_blocks.size();
  const std::size_t t1_stride_h = space_.htiles.size() * t1_stride_a;
  if (options_.objective == Objective::MaxEfficiency) {
    std::vector<runner::Scenario> probes;
    for (std::size_t k = 0;
         k < space_.machines.size() * num_comms * t1_stride_h; ++k) {
      Candidate c;
      c.machine = static_cast<std::uint32_t>(k / t1_stride_h / num_comms);
      c.comm = static_cast<std::uint32_t>(k / t1_stride_h % num_comms);
      c.htile = static_cast<std::uint32_t>(k % t1_stride_h / t1_stride_a);
      c.angle = static_cast<std::uint32_t>(k % t1_stride_a);
      runner::Scenario s = scenario(c);
      s.grid = topo::Grid(1, 1);
      if (takes_pz_) s.params["pz"] = 1.0;
      probes.push_back(std::move(s));
    }
    t1 = headline(probes);
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

  // Scores `flats` (already deduped against `seen` by the caller) in
  // order, truncating at the budget. Returns false once the budget is
  // exhausted — the caller must stop generating rounds so the scored set
  // stays a prefix of the budget-independent sequence.
  const auto score_round = [&](const std::vector<std::size_t>& flats) {
    std::size_t take = flats.size();
    if (options_.budget > 0) {
      const std::size_t left = options_.budget - scored.size();
      if (take >= left) {
        take = left;
        budget_hit = true;
      }
    }
    std::vector<runner::Scenario> points;
    points.reserve(take);
    for (std::size_t i = 0; i < take; ++i)
      points.push_back(scenario(space_.at(flats[i])));
    const std::vector<double> times = headline(points);
    for (std::size_t i = 0; i < take; ++i)
      scored.push_back(Entry{flats[i], times[i],
                             objective_value(times[i], space_.at(flats[i]))});
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

  OptimizeResult out;
  out.workload = workload_;
  out.objective = options_.objective;
  out.strategy = strategy;
  out.space_size = space_size;
  out.evaluated = scored.size();
  out.seed = options_.seed;

  std::stable_sort(scored.begin(), scored.end(), better);
  const std::size_t top =
      std::min<std::size_t>(scored.size(),
                            static_cast<std::size_t>(options_.ranking_size));
  for (std::size_t k = 0; k < top; ++k) {
    const Candidate c = space_.at(scored[k].flat);
    const core::MachineConfig machine = scenario(c).effective_machine();
    Recommendation r;
    r.machine = machine.name;
    r.comm_model = machine.comm_model;
    r.grid_columns = space_.decompositions[c.decomp].n();
    r.grid_rows = space_.decompositions[c.decomp].m();
    r.htile = apps[c.htile].htile;
    r.pz = takes_pz_ ? effective_pz(c) : 0.0;
    r.angle_blocks =
        takes_angle_ ? (space_.angle_blocks[c.angle] > 0.0
                            ? space_.angle_blocks[c.angle]
                            : angle_fallback_)
                     : 0.0;
    r.ranks = candidate_ranks(c);
    r.model_us = scored[k].time_us;
    r.objective_value = scored[k].value;
    out.ranking.push_back(std::move(r));
  }

  // ---- DES re-rank of the finalists -------------------------------------
  // The finalists are ordered by (simulated objective, flat index): the
  // same total order as the model ranking, on the simulated time.
  const std::size_t k_final = std::min<std::size_t>(
      out.ranking.size(), static_cast<std::size_t>(options_.top_k));
  std::vector<runner::Scenario> runs;
  for (std::size_t i = 0; i < k_final; ++i) {
    runner::Scenario s = scenario(space_.at(scored[i].flat));
    s.engine = runner::Engine::Simulation;
    s.iterations = options_.iterations;
    runs.push_back(std::move(s));
  }
  const std::vector<double> sim_us = headline(runs);
  const double tolerance_pct =
      100.0 *
      workloads::get_workload(ctx_->workload_registry(), workload_)
          ->tolerance();
  std::vector<std::pair<Entry, Recommendation>> finalists;
  for (std::size_t i = 0; i < k_final; ++i) {
    Recommendation r = out.ranking[i];
    r.simulated = true;
    r.sim_us = sim_us[i];
    r.sim_objective_value =
        objective_value(sim_us[i], space_.at(scored[i].flat));
    r.divergence_pct =
        sim_us[i] > 0.0 ? 100.0 * std::abs(r.model_us - sim_us[i]) / sim_us[i]
                        : 0.0;
    r.within_tolerance = r.divergence_pct <= tolerance_pct;
    finalists.emplace_back(
        Entry{scored[i].flat, sim_us[i], r.sim_objective_value}, std::move(r));
  }
  std::stable_sort(finalists.begin(), finalists.end(),
                   [](const auto& a, const auto& b) {
                     return better(a.first, b.first);
                   });
  for (auto& f : finalists) out.finalists.push_back(std::move(f.second));
  return out;
}

}  // namespace wave::optimize
