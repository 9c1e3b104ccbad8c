// Fig 6: total execution time (days) vs system size for the 10^9-cell
// Sweep3D problem, 10^4 time steps, 30 energy groups, Htile = 2, with
// "measured" points from the simulator where feasible.
#include <iostream>

#include "common/units.h"
#include "core/benchmarks.h"
#include "core/solver.h"
#include "runner/runner.h"
#include "workloads/wavefront.h"

using namespace wave;

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const wave::Context ctx = runner::default_context();
  if (runner::handle_list_flags(cli, ctx)) return 0;
  runner::reject_workload_cli(cli, ctx);
  const bool full = cli.has("full");
  runner::print_header(
      "Fig 6", "execution time vs system size (Sweep3D 10^9, 10^4 steps)",
      "strong scaling with diminishing returns: large gains to ~16K "
      "processors, visibly flattening beyond 32K; measured points track "
      "the model within ~10%");

  core::benchmarks::Sweep3dConfig cfg;
  cfg.energy_groups = 30;
  const auto app = core::benchmarks::sweep3d(cfg);
  const double steps = 1.0e4;

  // Simulating 10^9 cells on thousands of ranks is feasible but slow;
  // default caps the measured points like the ORNL machine capped the
  // paper's.
  const int max_sim_p = full ? 4096 : 1024;

  runner::SweepGrid grid;
  grid.base().app = app;
  grid.base().machine = core::MachineConfig::xt4_dual_core();
  runner::apply_machine_cli(cli, ctx, grid);
  std::vector<int> procs;
  for (int p = 256; p <= 131072; p *= 2) procs.push_back(p);
  grid.processors(procs);

  const auto records = runner::BatchRunner(ctx, runner::options_from_cli(cli))
                           .run(grid, [&](const runner::Scenario& s) {
                             runner::Metrics m;
                             const auto machine = s.effective_machine();
                             const core::Solver solver(
                                 s.app, machine, ctx.comm_model_registry());
                             m.emplace_back(
                                 "model_days",
                                 common::usec_to_days(
                                     solver.evaluate(s.grid).timestep()) *
                                     steps);
                             if (s.processors() <= max_sim_p) {
                               const auto sim = workloads::simulate_wavefront(
                                   s.app,
                                   workloads::sim_machine(
                                       machine, ctx.comm_model_registry()),
                                   s.grid, 1);
                               const double sim_days =
                                   common::usec_to_days(sim.time_us * 120.0 *
                                                        30.0) *
                                   steps;
                               m.emplace_back("measured_days", sim_days);
                               m.emplace_back(
                                   "err_pct",
                                   100.0 * common::relative_error(
                                               m.front().second, sim_days));
                             }
                             return m;
                           });

  runner::emit(cli, records,
               {runner::Column::label("P"),
                runner::Column::metric("model_days", "model_days", 1),
                runner::Column::metric("measured_days", "measured_days", 1),
                runner::Column::metric("err%", "err_pct", 2)});
  if (!full)
    std::cout << "(--full simulates measured points up to P = 4096)\n";
  return 0;
}
