// Ablation: the model's critical-path communication share (Fig 11's
// decomposition) vs the simulator's measured MPI-operation occupancy.
//
// The two metrics are not identical — the model splits the *critical
// path*, the simulator averages per-rank time spent inside MPI calls
// (including pipeline-stall waiting) — but they must tell the same story:
// communication's share grows with P and crosses 50% in the same region.
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
  runner::print_header(
      "Ablation: communication share, model vs simulator",
      "Chimaera 240^3 on dual-core nodes",
      "both shares rise monotonically with P; the simulator's includes "
      "pipeline-stall waiting so it runs higher, but the diminishing-"
      "returns crossover lands in the same processor range");

  runner::SweepGrid grid;
  grid.base().app = core::benchmarks::chimaera();
  grid.base().machine = core::MachineConfig::xt4_dual_core();
  runner::apply_machine_cli(cli, ctx, grid);
  grid.processors({64, 256, 1024, 4096});

  auto records = runner::BatchRunner(ctx, runner::options_from_cli(cli))
                     .run(grid, [&ctx](const runner::Scenario& s) {
                       return runner::model_vs_sim_metrics(ctx, s);
                     });
  for (auto& r : records) {
    r.set("model_share_pct", 100.0 * r.metric("model_iter_comm_us") /
                                 r.metric("model_iter_us"));
    r.set("sim_share_pct", 100.0 * r.metric("sim_mpi_busy_us") /
                               r.metric("sim_makespan_us"));
  }

  runner::emit(
      cli, records,
      {runner::Column::label("P"),
       runner::Column::metric("model_comm_share%", "model_share_pct", 1),
       runner::Column::metric("sim_mpi_share%", "sim_share_pct", 1)});
  return 0;
}
