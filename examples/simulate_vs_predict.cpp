// Running the discrete-event simulator directly and comparing it with the
// analytic model — the validation loop a user should run before trusting
// either for a new code or machine. One declarative sweep; the batch
// runner evaluates model and simulator for every point.
//
// Build and run:  ./build/examples/simulate_vs_predict
#include <cstdio>

#include "core/benchmarks.h"
#include "runner/runner.h"

using namespace wave;

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const wave::Context ctx = runner::default_context();
  // --list-workloads / --list-comm-models / --list-machines
  // print the context's catalogs and exit.
  if (runner::handle_list_flags(cli, ctx)) return 0;
  runner::reject_workload_cli(cli, ctx);

  // A mid-size Chimaera-like problem so the simulation finishes in
  // seconds.
  core::benchmarks::ChimaeraConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 120;
  const core::AppParams app = core::benchmarks::chimaera(cfg);

  std::printf("Chimaera %gx%gx%g on simulated dual-core XT4 nodes\n\n",
              app.nx, app.ny, app.nz);

  runner::SweepGrid grid;
  grid.base().app = app;
  grid.base().machine = core::MachineConfig::xt4_dual_core();
  runner::apply_machine_cli(cli, ctx, grid);
  grid.processors({16, 64, 256, 1024});

  const auto records = runner::BatchRunner(ctx, runner::options_from_cli(cli))
                           .run(grid, [&ctx](const runner::Scenario& s) {
                       return runner::model_vs_sim_metrics(ctx, s);
                     });

  runner::emit(
      cli, records,
      {runner::Column::label("P"),
       runner::Column::metric("model (ms)", "model_iter_us", 3, 1.0e-3),
       runner::Column::metric("sim (ms)", "sim_iter_us", 3, 1.0e-3),
       runner::Column::metric("err %", "err_pct", 2),
       runner::Column::integer("DES events", "sim_events"),
       runner::Column::metric("bus wait(us)", "sim_bus_wait_us", 1)});

  std::printf(
      "The simulator executes the real per-tile MPI schedule (blocking\n"
      "sends/receives, eager and rendezvous protocols, shared-bus DMA),\n"
      "so agreement here means the model's nfull/ndiag/Htile abstraction\n"
      "captures the code's actual behaviour — the paper's central claim.\n");
  return 0;
}
