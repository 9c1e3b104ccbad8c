// The auto-configurator (ROADMAP item 3): the SearchSpace indexing
// contract, the Optimizer's determinism/monotonicity/quality guarantees,
// its scores against the scalar reference evaluators, the DES re-rank's
// divergence accounting, and the facade's Status taxonomy at the
// wave::Optimize boundary.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/solver.h"
#include "optimize/optimizer.h"
#include "optimize/search_space.h"
#include "topology/grid.h"
#include "wave/wave.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace wopt = wave::optimize;

namespace {

// Hex-formats every field of every recommendation so "byte-identical"
// is literal: two results fingerprint equal iff all doubles are
// bit-equal, not merely close.
std::string fingerprint(const wave::OptimizeResult& r) {
  std::string out;
  char buf[512];
  const auto line = [&](const char* tag, const wave::Recommendation& rec) {
    std::snprintf(buf, sizeof buf,
                  "%s%s|%s|%dx%d|%a|%a|%a|%d|%a|%a|%d|%a|%a|%a|%d\n", tag,
                  rec.machine.c_str(), rec.comm_model.c_str(),
                  rec.grid_columns, rec.grid_rows, rec.htile, rec.pz,
                  rec.angle_blocks, rec.ranks, rec.model_us,
                  rec.objective_value, rec.simulated ? 1 : 0, rec.sim_us,
                  rec.sim_objective_value, rec.divergence_pct,
                  rec.within_tolerance ? 1 : 0);
    out += buf;
  };
  for (const wave::Recommendation& rec : r.ranking) line("", rec);
  for (const wave::Recommendation& rec : r.finalists) line("F ", rec);
  return out;
}

// The reference beam-search job for the determinism/monotonicity tests:
// a space big enough (hundreds of candidates) that the beam actually
// samples and refines rather than degenerating to exhaustive.
wave::Optimize beam_job(const wave::Context& ctx) {
  return ctx.optimize()
      .machines({"xt4-dual", "xt4-single"})
      .processors({512, 720, 1024})
      .htiles({0.0, 1.0, 2.0, 5.0})
      .strategy(wave::SearchStrategy::Beam)
      .budget(80)
      .top_k(0)
      .seed(2008);
}

// A second job for the determinism test: a registry workload (the
// runner's non-batch route) with a comm axis, the efficiency objective
// (T(1) probes) and a DES re-rank.
wave::Optimize hybrid_job(const wave::Context& ctx) {
  return ctx.optimize()
      .workload("sweep3d-hybrid")
      .machines({"xt4-dual", "xt4-single"})
      .comm_models({"loggp", "loggps"})
      .processors({16, 32})
      .pz({0.0, 1.0, 2.0})
      .angle_blocks({0.0, 2.0})
      .objective(wave::Objective::MaxEfficiency)
      .strategy(wave::SearchStrategy::Beam)
      .budget(40)
      .top_k(2)
      .seed(2008);
}

}  // namespace

// ---- SearchSpace indexing ----------------------------------------------

TEST(OptimizeSpace, FlatIndexRoundTripsTheWholeSpace) {
  wopt::SearchSpace space;
  space.machines = {wave::Context().resolve_machine("xt4-dual"),
                    wave::Context().resolve_machine("sp2")};
  space.comm_models = {"", "loggps"};
  space.decompositions = wopt::decompositions_of(12);
  space.htiles = {0.0, 2.0};
  ASSERT_NO_THROW(space.validate());
  const std::size_t n = space.size();
  EXPECT_EQ(n, 2u * 2u * 6u * 2u);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_EQ(space.index_of(space.at(k)), k);
}

TEST(OptimizeSpace, DecompositionsEnumerateDivisorPairs) {
  const auto decomps = wopt::decompositions_of(12);
  ASSERT_EQ(decomps.size(), 6u);  // 1,2,3,4,6,12 columns
  for (const auto& g : decomps) EXPECT_EQ(g.n() * g.m(), 12);
  for (std::size_t i = 1; i < decomps.size(); ++i)
    EXPECT_LT(decomps[i - 1].n(), decomps[i].n());
  // Repeated counts collapse to one copy of each grid.
  EXPECT_EQ(wopt::decompositions_for({12, 12}).size(), 6u);
}

TEST(OptimizeSpace, NeighborsStayInBoundsAndPerturbOneAxis) {
  wopt::SearchSpace space;
  space.machines = {wave::Context().resolve_machine("xt4-dual"),
                    wave::Context().resolve_machine("sp2")};
  space.decompositions = wopt::decompositions_of(16);
  space.htiles = {0.0, 1.0, 2.0};
  const wopt::Candidate corner{};  // all-zero: only + moves exist
  for (const auto& nb : space.neighbors(corner)) {
    const std::size_t idx = space.index_of(nb);
    EXPECT_LT(idx, space.size());
    EXPECT_EQ(space.at(idx), nb);
    int moved = (nb.machine != corner.machine) + (nb.comm != corner.comm) +
                (nb.decomp != corner.decomp) + (nb.htile != corner.htile) +
                (nb.pz != corner.pz) + (nb.angle != corner.angle);
    EXPECT_EQ(moved, 1);
  }
  // Interior candidate: minus and plus on machine/decomp/htile, nothing
  // on the size-1 comm/pz/angle axes.
  const wopt::Candidate mid{1, 0, 2, 1, 0, 0};
  EXPECT_EQ(space.neighbors(mid).size(), 5u);  // machine has no +1
}

// ---- determinism --------------------------------------------------------

TEST(OptimizeDeterminism, SameSeedByteIdenticalAtAnyThreadCount) {
  const wave::Context ctx;
  for (auto job : {beam_job, hybrid_job}) {
    std::string reference;
    for (int threads : {1, 2, 5}) {
      auto r = job(ctx).threads(threads).run();
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      EXPECT_EQ(r.value().strategy, wave::SearchStrategy::Beam);
      const std::string fp = fingerprint(r.value());
      if (reference.empty())
        reference = fp;
      else
        EXPECT_EQ(fp, reference) << "threads=" << threads;
    }
    ASSERT_FALSE(reference.empty());
  }
}

// The DES re-rank is deterministic: finalists simulated from a 1-thread
// and a 4-thread search are byte-identical.
TEST(OptimizeDeterminism, FinalistsByteIdenticalAcrossThreads) {
  const wave::Context ctx;
  auto job = [&](int threads) {
    return ctx.optimize()
        .machines({"xt4-dual"})
        .processors({64})
        .strategy(wave::SearchStrategy::Exhaustive)
        .top_k(2)
        .threads(threads)
        .run();
  };
  auto a = job(1);
  auto b = job(4);
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  ASSERT_EQ(a.value().finalists.size(), 2u);
  EXPECT_EQ(fingerprint(a.value()), fingerprint(b.value()));
}

// ---- budget monotonicity ------------------------------------------------

TEST(OptimizeBudget, LargerBudgetNeverWorsensTheOptimum) {
  const wave::Context ctx;
  double previous_best = 0.0;
  std::size_t previous_evaluated = 0;
  bool first = true;
  for (std::size_t budget : {24u, 48u, 96u, 192u}) {
    auto r = beam_job(ctx).budget(budget).run();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    const auto& value = r.value();
    EXPECT_LE(value.evaluated, budget);
    const double best = value.ranking.front().objective_value;
    if (!first) {
      EXPECT_LE(best, previous_best) << "budget=" << budget;
      EXPECT_GE(value.evaluated, previous_evaluated);
    }
    previous_best = best;
    previous_evaluated = value.evaluated;
    first = false;
  }
}

// ---- beam quality vs exhaustive ----------------------------------------

TEST(OptimizeBeam, RecoversExhaustiveOptimumWithinTwoPercentAtTenPercent) {
  const wave::Context ctx;
  auto base = [&] {
    return ctx.optimize()
        .machines({"xt4-dual", "xt4-single"})
        .processors({720, 960, 1440})  // divisor-rich counts: a wide space
        .htiles({0.0, 1.0, 2.0, 5.0})
        .top_k(0)
        .seed(2008);
  };
  auto truth = base().strategy(wave::SearchStrategy::Exhaustive).run();
  ASSERT_TRUE(truth.ok()) << truth.status().to_string();
  const std::size_t space = truth.value().space_size;
  EXPECT_EQ(truth.value().evaluated, space);

  const std::size_t tenth = space / 10;
  auto beam = base().strategy(wave::SearchStrategy::Beam).budget(tenth).run();
  ASSERT_TRUE(beam.ok()) << beam.status().to_string();
  EXPECT_LE(beam.value().evaluated, tenth);
  const double optimum = truth.value().ranking.front().objective_value;
  const double found = beam.value().ranking.front().objective_value;
  EXPECT_LE(found, optimum * 1.02)
      << "beam missed the exhaustive optimum by "
      << 100.0 * (found / optimum - 1.0) << "% (space " << space
      << ", budget " << tenth << ")";
}

// The same guarantee holds for the other objectives — node-hours favors
// small near-square grids, efficiency the serial end, so these exercise
// different corners of the space.
TEST(OptimizeBeam, QualityHoldsAcrossObjectives) {
  const wave::Context ctx;
  for (wave::Objective obj :
       {wave::Objective::MinNodeHours, wave::Objective::MaxEfficiency}) {
    auto base = [&] {
      return ctx.optimize()
          .machines({"xt4-dual", "xt4-single"})
          .processors({720, 960, 1440})
          .htiles({0.0, 1.0, 2.0, 5.0})
          .objective(obj)
          .top_k(0)
          .seed(2008);
    };
    auto truth = base().strategy(wave::SearchStrategy::Exhaustive).run();
    ASSERT_TRUE(truth.ok()) << truth.status().to_string();
    auto beam = base()
                    .strategy(wave::SearchStrategy::Beam)
                    .budget(truth.value().space_size / 10)
                    .run();
    ASSERT_TRUE(beam.ok()) << beam.status().to_string();
    EXPECT_LE(beam.value().ranking.front().objective_value,
              truth.value().ranking.front().objective_value * 1.02)
        << "objective " << wave::to_string(obj);
  }
}

// ---- scores against the reference evaluators ----------------------------

namespace {

// Re-derives every recommendation of `r` (ranking and finalists) from its
// own fields and checks the reported numbers bit for bit: model_us
// against the scalar reference (core::Solver for the wavefront pipeline,
// Workload::predict otherwise), objective_value against the objective's
// formula — under MaxEfficiency with T(1) re-evaluated at a 1x1 grid and
// pz = 1 — and each finalist's sim_us against Workload::simulate.
void expect_scores_match_reference(const wave::Context& ctx,
                                   const std::string& workload_name,
                                   const std::vector<std::string>& machines,
                                   const wave::OptimizeResult& r) {
  std::map<std::string, wave::core::MachineConfig> by_display_name;
  for (const std::string& name : machines) {
    const wave::core::MachineConfig m = ctx.resolve_machine(name);
    by_display_name[m.name] = m;
  }
  const auto workload =
      wave::workloads::get_workload(ctx.workload_registry(), workload_name);
  const bool wavefront = workload_name == "wavefront";

  // Distinct candidates are distinct configurations: a ranking that
  // collapses an axis (say, a comm override that never applies) repeats
  // one configuration under several candidates.
  std::set<std::string> configurations;
  for (const wave::Recommendation& rec : r.ranking) {
    char key[256];
    std::snprintf(key, sizeof key, "%s|%s|%dx%d|%a|%a|%a",
                  rec.machine.c_str(), rec.comm_model.c_str(),
                  rec.grid_columns, rec.grid_rows, rec.htile, rec.pz,
                  rec.angle_blocks);
    EXPECT_TRUE(configurations.insert(key).second) << "repeated: " << key;
  }

  std::vector<wave::Recommendation> all = r.ranking;
  all.insert(all.end(), r.finalists.begin(), r.finalists.end());
  for (const wave::Recommendation& rec : all) {
    SCOPED_TRACE(rec.machine + " " + rec.comm_model + " " +
                 std::to_string(rec.grid_columns) + "x" +
                 std::to_string(rec.grid_rows));
    ASSERT_EQ(by_display_name.count(rec.machine), 1u);
    wave::core::MachineConfig machine = by_display_name.at(rec.machine);
    machine.comm_model = rec.comm_model;
    wave::workloads::WorkloadInputs in;
    in.app.htile = rec.htile;
    in.grid = wave::topo::Grid(rec.grid_columns, rec.grid_rows);
    if (rec.pz > 0.0) in.params["pz"] = rec.pz;
    if (rec.angle_blocks > 0.0) in.params["angle_blocks"] = rec.angle_blocks;
    const auto model_time = [&](const wave::workloads::WorkloadInputs& at) {
      if (!wavefront)
        return workload->predict(machine, ctx.comm_model_registry(), at)
            .time_us;
      const wave::core::Solver solver(at.app, machine,
                                      ctx.comm_model_registry());
      return solver.evaluate(at.grid).iteration.total;
    };

    EXPECT_EQ(rec.model_us, model_time(in));
    EXPECT_EQ(rec.ranks, static_cast<int>(rec.grid_columns * rec.grid_rows *
                                          (rec.pz > 0.0 ? rec.pz : 1.0)));
    const auto objective = [&](double time_us) {
      switch (r.objective) {
        case wave::Objective::MinTime:
          return time_us;
        case wave::Objective::MinNodeHours:
          return time_us * rec.ranks;
        case wave::Objective::MaxEfficiency:
          break;
      }
      wave::workloads::WorkloadInputs serial = in;
      serial.grid = wave::topo::Grid(1, 1);
      if (rec.pz > 0.0) serial.params["pz"] = 1.0;
      return rec.ranks * time_us / model_time(serial);
    };
    EXPECT_EQ(rec.objective_value, objective(rec.model_us));

    if (!rec.simulated) continue;
    const double sim_us =
        workload->simulate(machine, ctx.comm_model_registry(), in).time_us;
    EXPECT_EQ(rec.sim_us, sim_us);
    EXPECT_EQ(rec.sim_objective_value, objective(sim_us));
  }
}

}  // namespace

TEST(OptimizeScoring, WavefrontScoresEqualTheScalarSolver) {
  const wave::Context ctx;
  const std::vector<std::string> machines = {"xt4-dual", "sp2"};
  for (wave::Objective obj :
       {wave::Objective::MinTime, wave::Objective::MinNodeHours,
        wave::Objective::MaxEfficiency}) {
    auto r = ctx.optimize()
                 .machines(machines)
                 .comm_models({"loggp", "loggps", "contention"})
                 .processors({16, 24})
                 .htiles({0.0, 1.0, 5.0})
                 .objective(obj)
                 .ranking_size(1000)
                 .top_k(2)
                 .threads(3)
                 .run();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    ASSERT_EQ(r.value().ranking.size(), r.value().space_size);
    ASSERT_EQ(r.value().finalists.size(), 2u);
    SCOPED_TRACE(wave::to_string(obj));
    expect_scores_match_reference(ctx, "wavefront", machines, r.value());
  }
}

TEST(OptimizeScoring, HybridScoresEqualWorkloadPredict) {
  const wave::Context ctx;
  const std::vector<std::string> machines = {"xt4-dual", "xt4-single"};
  for (wave::Objective obj :
       {wave::Objective::MinTime, wave::Objective::MinNodeHours,
        wave::Objective::MaxEfficiency}) {
    auto r = ctx.optimize()
                 .workload("sweep3d-hybrid")
                 .machines(machines)
                 .comm_models({"loggp", "loggps"})
                 .processors({16})
                 .pz({0.0, 1.0, 4.0})
                 .angle_blocks({0.0, 3.0})
                 .objective(obj)
                 .ranking_size(1000)
                 .top_k(2)
                 .threads(3)
                 .run();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    ASSERT_EQ(r.value().ranking.size(), r.value().space_size);
    ASSERT_EQ(r.value().finalists.size(), 2u);
    SCOPED_TRACE(wave::to_string(obj));
    expect_scores_match_reference(ctx, "sweep3d-hybrid", machines, r.value());
  }
}

// ---- strategy selection -------------------------------------------------

TEST(OptimizeStrategy, AutoIsExhaustiveOnSmallSpaces) {
  const wave::Context ctx;
  auto r = ctx.optimize()
               .machines({"xt4-dual"})
               .processors({64})
               .top_k(0)
               .run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().strategy, wave::SearchStrategy::Exhaustive);
  EXPECT_EQ(r.value().evaluated, r.value().space_size);
  // MinTime over one machine: the ranking is sorted by predicted time.
  const auto& ranking = r.value().ranking;
  for (std::size_t i = 1; i < ranking.size(); ++i)
    EXPECT_LE(ranking[i - 1].objective_value, ranking[i].objective_value);
}

// ---- the DES re-rank ----------------------------------------------------

// On near-square decompositions (where the wavefront's analytic and
// mechanistic paths agree best — see docs/WORKLOADS.md) every finalist
// lands inside the workload's declared tolerance.
TEST(OptimizeRerank, FinalistsDivergeWithinTheWorkloadTolerance) {
  const wave::Context ctx;
  wopt::SearchSpace space;
  space.machines = {ctx.resolve_machine("xt4-dual")};
  space.decompositions = {wave::topo::Grid(4, 4), wave::topo::Grid(6, 6),
                          wave::topo::Grid(8, 8)};
  wopt::Options options;
  options.strategy = wave::SearchStrategy::Exhaustive;
  options.top_k = 2;
  const wopt::Optimizer optimizer(
      ctx, "wavefront", wave::workloads::WorkloadInputs::default_app(), space,
      options);
  const wave::OptimizeResult result = optimizer.run();
  ASSERT_EQ(result.finalists.size(), 2u);
  for (const wave::Recommendation& f : result.finalists) {
    EXPECT_GT(f.sim_us, 0.0);
    EXPECT_TRUE(f.within_tolerance)
        << f.grid_columns << "x" << f.grid_rows << " diverged "
        << f.divergence_pct << "%";
    EXPECT_LE(f.divergence_pct, 100.0 * 0.12 + 1e-9);  // wavefront bound
  }
  // Finalists are ordered by the simulated objective.
  EXPECT_LE(result.finalists[0].sim_objective_value,
            result.finalists[1].sim_objective_value);
}

// Over an unconstrained divisor axis the flag reports honestly: skinny
// decompositions can (and do) breach the bound, and the result says so
// instead of hiding it.
TEST(OptimizeRerank, DivergenceIsReportedPerFinalist) {
  const wave::Context ctx;
  auto r = ctx.optimize()
               .machines({"xt4-dual"})
               .processors({16})
               .strategy(wave::SearchStrategy::Exhaustive)
               .top_k(2)
               .run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_EQ(r.value().finalists.size(), 2u);
  for (const wave::Recommendation& f : r.value().finalists) {
    EXPECT_TRUE(f.simulated);
    EXPECT_GT(f.sim_us, 0.0);
    EXPECT_GT(f.divergence_pct, 0.0);
    // The flag is the divergence measured against the declared bound —
    // nothing else.
    EXPECT_EQ(f.within_tolerance, f.divergence_pct <= 100.0 * 0.12);
  }
}

TEST(OptimizeRerank, TopKZeroSkipsSimulationEntirely) {
  const wave::Context ctx;
  auto r = ctx.optimize().machines({"xt4-dual"}).processors({16}).top_k(0).run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r.value().finalists.empty());
  EXPECT_FALSE(r.value().ranking.front().simulated);
  // best() falls back to the model ranking.
  EXPECT_EQ(&r.value().best(), &r.value().ranking.front());
}

// ---- the facade error contract -----------------------------------------

TEST(OptimizeStatus, UnboundBuilderIsFailedPrecondition) {
  const wave::Optimize unbound;
  auto r = unbound.run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), wave::StatusCode::kFailedPrecondition);
}

TEST(OptimizeStatus, UnknownNamesAreNotFound) {
  const wave::Context ctx;
  {
    auto r = ctx.optimize().workload("no-such-workload").run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), wave::StatusCode::kNotFound);
    EXPECT_NE(r.status().message().find("no-such-workload"),
              std::string::npos);
  }
  {
    auto r = ctx.optimize().machines({"no-such-machine"}).run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), wave::StatusCode::kNotFound);
  }
  {
    auto r = ctx.optimize().comm_models({"no-such-backend"}).run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), wave::StatusCode::kNotFound);
  }
  {
    auto r = ctx.optimize().app("no-such-preset").run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), wave::StatusCode::kNotFound);
  }
}

TEST(OptimizeStatus, DomainErrorsAreInvalidArgument) {
  const wave::Context ctx;
  {
    auto r = ctx.optimize().processors({}).run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), wave::StatusCode::kInvalidArgument);
  }
  {
    auto r = ctx.optimize().processors({0}).run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), wave::StatusCode::kInvalidArgument);
  }
  {
    // A pz axis on a workload whose schema has no pz knob must be loud.
    auto r = ctx.optimize().workload("wavefront").pz({2.0}).run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), wave::StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("wavefront"), std::string::npos);
  }
  {
    // A fractional plane count is not rounded into some other space.
    auto r = ctx.optimize().workload("sweep3d-hybrid").pz({2.5}).run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), wave::StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("'pz'"), std::string::npos);
  }
}

// The pz/angle axes do work where the workload declares them.
TEST(OptimizeStatus, HybridWorkloadAcceptsItsOwnAxes) {
  const wave::Context ctx;
  auto r = ctx.optimize()
               .workload("sweep3d-hybrid")
               .machines({"xt4-dual"})
               .processors({16})
               .pz({0.0, 2.0})
               .angle_blocks({0.0, 3.0})
               .top_k(0)
               .run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().space_size,
            wopt::decompositions_of(16).size() * 2u * 2u);
}

// The CLI vocabulary round-trips and rejects garbage (the demo driver's
// fatal-unknown-flag behavior rides on these).
TEST(OptimizeStatus, CliVocabularyParsesAndRejects) {
  wave::Objective obj;
  EXPECT_TRUE(wave::parse_objective("node-hours", &obj));
  EXPECT_EQ(obj, wave::Objective::MinNodeHours);
  EXPECT_FALSE(wave::parse_objective("bogus", &obj));
  wave::SearchStrategy strat;
  EXPECT_TRUE(wave::parse_search_strategy("beam", &strat));
  EXPECT_EQ(strat, wave::SearchStrategy::Beam);
  EXPECT_FALSE(wave::parse_search_strategy("bogus", &strat));
  EXPECT_NE(wave::objective_names_joined().find("efficiency"),
            std::string::npos);
  EXPECT_NE(wave::search_strategy_names_joined().find("exhaustive"),
            std::string::npos);
}
