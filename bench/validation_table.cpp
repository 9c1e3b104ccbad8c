// The §4.3/§5 validation claim: plug-and-play model vs "measured" (here:
// simulated) execution per iteration for LU, Sweep3D and Chimaera on
// dual-core nodes across processor counts.
//
// Paper: "The model predicts execution time on up to 8192 processors with
// less than 5% error for LU and less than 10% error for all high
// performance configurations of the particle transport benchmarks."
#include <iostream>

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
  const bool full = cli.has("full");
  runner::print_header(
      "Validation", "model vs simulated time per iteration (dual-core)",
      "< 5% error for LU, < 10% for Sweep3D/Chimaera in configurations "
      "where computation dominates; larger errors only when the per-node "
      "problem is small (not of production interest)");

  core::benchmarks::Sweep3dConfig s3;
  if (!full) s3.nx = s3.ny = s3.nz = 512;  // keep default runtime modest

  std::vector<int> procs = {16, 64, 256, 1024};
  if (full) {
    procs.push_back(4096);
    procs.push_back(8192);
  }

  runner::SweepGrid grid;
  grid.base().machine = core::MachineConfig::xt4_dual_core();
  runner::apply_machine_cli(cli, ctx, grid);
  grid.apps({{"LU 162^3", core::benchmarks::lu()},
             {full ? "Sweep3D 1000^3" : "Sweep3D 512^3",
              core::benchmarks::sweep3d(s3)},
             {"Chimaera 240^3", core::benchmarks::chimaera()}});
  grid.processors(procs);

  const auto records = runner::BatchRunner(ctx, runner::options_from_cli(cli))
                           .run(grid, [&ctx](const runner::Scenario& s) {
                       return runner::model_vs_sim_metrics(ctx, s);
                     });

  runner::emit(
      cli, records,
      {runner::Column::label("application"), runner::Column::label("P"),
       runner::Column::metric("model_ms", "model_iter_us", 3, 1.0e-3),
       runner::Column::metric("sim_ms", "sim_iter_us", 3, 1.0e-3),
       runner::Column::metric("err%", "err_pct", 2),
       runner::Column::integer("sim_events", "sim_events")});
  if (!full)
    std::cout << "(run with --full for the paper-size problems and "
                 "P up to 8192; runtime grows to minutes)\n";
  return 0;
}
