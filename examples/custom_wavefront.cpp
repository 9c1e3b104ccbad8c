// Designing an imaginary wavefront code with the plug-and-play model.
//
// §4.1: "these application parameters support the evaluation of LU,
// Sweep3D, Chimaera, other possible wavefront applications, and many if
// not most possible application code design changes." This example builds
// a hypothetical 4-sweep code, explores three sweep-precedence designs and
// the Htile space as declarative sweeps, and cross-checks one design
// point against the discrete-event simulator.
//
// Build and run:  ./build/examples/custom_wavefront
#include <cstdio>

#include "common/units.h"
#include "core/app_params.h"
#include "runner/runner.h"

using namespace wave;

namespace {

/// A hypothetical seismic-kernel-like wavefront code: 4 sweeps per
/// iteration (one per horizontal direction pair), 3 coupled variables per
/// boundary cell, one all-reduce per iteration.
core::AppParams make_app(core::SweepStructure sweeps, double htile) {
  core::AppParams app;
  app.name = "imaginary-4sweep";
  app.nx = app.ny = 512;
  app.nz = 256;
  app.wg = 1.1;  // pretend-measured, µs per cell
  app.htile = htile;
  app.sweeps = std::move(sweeps);
  app.boundary_bytes_per_cell = 24.0;  // three doubles
  app.nonwavefront.allreduce_count = 1;
  app.iterations_per_timestep = 50;
  app.validate();
  return app;
}

using enum core::SweepOrigin;
using enum core::SweepPrecedence;

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const wave::Context ctx = runner::default_context();
  // --list-workloads / --list-comm-models / --list-machines
  // print the context's catalogs and exit.
  if (runner::handle_list_flags(cli, ctx)) return 0;
  runner::reject_workload_cli(cli, ctx);
  const runner::BatchRunner batch(ctx, runner::options_from_cli(cli));

  // Three candidate sweep structures with identical total work.
  const core::SweepStructure barrier_heavy({{NorthWest, FullComplete},
                                            {SouthEast, FullComplete},
                                            {NorthEast, FullComplete},
                                            {SouthWest, FullComplete}});
  const core::SweepStructure chained({{NorthWest, OriginFree},
                                      {SouthEast, DiagonalComplete},
                                      {NorthEast, OriginFree},
                                      {SouthWest, FullComplete}});
  const core::SweepStructure same_direction({{NorthWest, OriginFree},
                                             {NorthWest, OriginFree},
                                             {NorthWest, OriginFree},
                                             {NorthWest, FullComplete}});

  std::printf("Sweep-structure design study at P = 4096, Htile = 2:\n");
  runner::SweepGrid designs;
  runner::apply_machine_cli(cli, ctx, designs);
  designs.apps({{"barrier-heavy (every sweep completes)",
                 make_app(barrier_heavy, 2.0)},
                {"chained corners (Sweep3D-style)", make_app(chained, 2.0)},
                {"same-direction pipeline (all sweeps from NW)",
                 make_app(same_direction, 2.0)}},
               "design");
  designs.processors({4096});

  auto design_records = batch.run(designs);
  runner::emit(
      cli, design_records,
      {runner::Column::label("design"),
       runner::Column::computed("nfull/ndiag",
                                [&](const runner::RunRecord& r) {
                                  // recover the structure from the label
                                  const std::string& d = r.label("design");
                                  const core::SweepStructure& s =
                                      d.starts_with("barrier") ? barrier_heavy
                                      : d.starts_with("chained")
                                          ? chained
                                          : same_direction;
                                  return std::to_string(s.nfull()) + "/" +
                                         std::to_string(s.ndiag());
                                }),
       runner::Column::metric("timestep (s)", "model_timestep_us", 3,
                              1.0 / common::kUsecPerSec)});

  std::printf("Htile scan for the chained design at P = 4096:\n");
  runner::SweepGrid htile_grid;
  runner::apply_machine_cli(cli, ctx, htile_grid);
  htile_grid.processors({4096});
  htile_grid.values("Htile", {1, 2, 4, 8, 16},
                    [&](runner::Scenario& s, double h) {
                      s.app = make_app(chained, h);
                    });
  auto htile_records = batch.run(htile_grid);
  runner::emit(cli, htile_records,
               {runner::Column::label("Htile"),
                runner::Column::metric("timestep (s)", "model_timestep_us", 3,
                                       1.0 / common::kUsecPerSec)});

  double best_h = 1.0, best_t = 1e300;
  for (const auto& r : htile_records)
    if (r.metric("model_timestep_us") < best_t) {
      best_t = r.metric("model_timestep_us");
      best_h = std::stod(r.label("Htile"));
    }
  std::printf("best Htile = %.0f\n", best_h);

  // Cross-check the chosen design against the simulator before trusting
  // the numbers (the plug-and-play promise is accuracy without bespoke
  // equations — verify it holds for *your* code's structure).
  runner::SweepGrid check;
  runner::apply_machine_cli(cli, ctx, check);
  check.base().app = make_app(chained, best_h);
  check.processors({256});
  const auto checked = batch.run(check, [&ctx](const runner::Scenario& s) {
    return runner::model_vs_sim_metrics(ctx, s);
  });
  const auto& c = checked.front();
  std::printf(
      "\ncross-check at P = 256: model %.3f ms/iter, simulated %.3f "
      "ms/iter (%.1f%% apart)\n",
      c.metric("model_iter_us") / 1000.0, c.metric("sim_iter_us") / 1000.0,
      c.metric("err_pct"));
  return 0;
}
