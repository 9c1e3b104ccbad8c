// Ablation: plug-and-play portability across machines — XT4 vs SP/2.
//
// Two of the paper's cross-machine observations:
//   * optimal Htile shifts from 2-5 on the XT4 to 5-10 on the SP/2
//     (§5.1, citing Hoisie et al.'s SP/2-era tuning), because the SP/2's
//     per-message costs are two orders of magnitude higher;
//   * the handshake synchronization terms "were significant on the SP/2"
//     but are "a negligible fraction ... on the XT4" (§4.2).
// Both fall out of the same model with only the MachineConfig changed.
#include "core/benchmarks.h"
#include "core/design_space.h"
#include "core/solver.h"
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
      "Ablation: machine portability (XT4 vs SP/2)",
      "optimal Htile and synchronization share per machine",
      "SP/2's high o and L push the optimal tile height up into the 5-10 "
      "band and make the (m-1)L sync terms noticeable; on the XT4 they "
      "are negligible");

  const runner::BatchRunner batch(ctx, runner::options_from_cli(cli));
  const std::vector<std::pair<std::string, core::MachineConfig>> machines = {
      {"XT4", core::MachineConfig::xt4_single_core()},
      {"SP/2", core::MachineConfig::sp2_single_core()}};

  // Htile optimum per machine, Sweep3D 20M-cell problem.
  runner::SweepGrid htile_grid;
  htile_grid.base().app = core::benchmarks::sweep3d_20m();
  runner::apply_comm_model_cli(cli, ctx, htile_grid);
  htile_grid.processors({1024, 4096});
  htile_grid.machines(machines);

  const auto htile_records =
      batch.run(htile_grid, [&ctx](const runner::Scenario& s) {
        const auto scan =
            core::scan_htile(s.app, s.effective_machine(),
                             ctx.comm_model_registry(), s.processors());
        return runner::Metrics{
            {"best_htile", scan.best_htile},
            {"gain_pct", 100.0 * scan.improvement_vs_unit}};
      });

  runner::emit(cli, htile_records,
               {runner::Column::label("machine"), runner::Column::label("P"),
                runner::Column::metric("best_Htile", "best_htile", 0),
                runner::Column::metric("gain_vs_Htile1_%", "gain_pct", 1)});

  // Synchronization-term share of the iteration per machine.
  runner::SweepGrid sync_grid;
  sync_grid.base().app = core::benchmarks::sweep3d_20m();
  runner::apply_comm_model_cli(cli, ctx, sync_grid);
  sync_grid.processors({256, 1024, 4096});
  sync_grid.machines(machines);

  const auto sync_records =
      batch.run(sync_grid, [&ctx](const runner::Scenario& s) {
        core::MachineConfig without = s.effective_machine();
        without.synchronization_terms = false;
        core::MachineConfig with = s.effective_machine();
        with.synchronization_terms = true;
        const auto& registry = ctx.comm_model_registry();
        const double t0 = core::Solver(s.app, without, registry)
                              .evaluate(s.grid)
                              .iteration.total;
        const double t1 = core::Solver(s.app, with, registry)
                              .evaluate(s.grid)
                              .iteration.total;
        return runner::Metrics{{"iter_no_sync_us", t0},
                               {"iter_sync_us", t1},
                               {"sync_share_pct", 100.0 * (t1 - t0) / t1}};
      });

  runner::emit(
      cli, sync_records,
      {runner::Column::label("machine"), runner::Column::label("P"),
       runner::Column::metric("iter_no_sync_ms", "iter_no_sync_us", 3, 1e-3),
       runner::Column::metric("iter_sync_ms", "iter_sync_us", 3, 1e-3),
       runner::Column::metric("sync_share_%", "sync_share_pct", 3)});
  return 0;
}
