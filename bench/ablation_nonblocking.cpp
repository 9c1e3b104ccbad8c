// Ablation: the nonblocking-sends application redesign (a "new application
// design modification" in the spirit of §5.5/§6).
//
// MPI_Isend overlaps the rendezvous handshake (h = 2L per large message)
// with the next tile's computation. The interesting question the model can
// answer before anyone rewrites a production code: on which machines is
// the rewrite worth it? On the XT4, h = 0.61 µs — noise; on an SP/2-class
// network, h = 92 µs per message and the answer changes.
#include "core/benchmarks.h"
#include "core/solver.h"
#include "runner/runner.h"
#include "workloads/wavefront.h"

using namespace wave;

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const wave::Context ctx = runner::default_context();
  // --list-workloads / --list-comm-models / --list-machines
  // print the context's catalogs and exit.
  if (runner::handle_list_flags(cli, ctx)) return 0;
  runner::reject_workload_cli(cli, ctx);
  runner::print_header(
      "Ablation: nonblocking boundary sends",
      "blocking vs MPI_Isend double buffering, model and simulator",
      "negligible gain on the XT4 (handshake 0.61 us against per-tile "
      "times of tens of us); double-digit-percent gain on an SP/2-class "
      "network where the handshake is 92 us per large message");

  // The 240^3 benchmark problem keeps the boundary messages above the
  // eager limit (rendezvous protocol) at these processor counts; finer
  // decompositions drop to eager sizes where there is no handshake to
  // hide and both variants coincide.
  runner::SweepGrid grid;
  grid.base().app = core::benchmarks::chimaera();
  runner::apply_comm_model_cli(cli, ctx, grid);
  grid.machines({{"XT4", core::MachineConfig::xt4_dual_core()},
                 {"SP/2", core::MachineConfig::sp2_single_core()}});
  grid.processors({64, 256});

  const auto records =
      runner::BatchRunner(ctx, runner::options_from_cli(cli))
          .run(grid, [&ctx](const runner::Scenario& s) {
            core::AppParams nonblocking = s.app;
            nonblocking.nonblocking_sends = true;
            const auto machine = s.effective_machine();
            const auto& registry = ctx.comm_model_registry();
            const double m_block = core::Solver(s.app, machine, registry)
                                       .evaluate(s.grid)
                                       .iteration.total;
            const double m_nonblock = core::Solver(nonblocking, machine,
                                                   registry)
                                          .evaluate(s.grid)
                                          .iteration.total;
            const auto sim = workloads::sim_machine(machine, registry);
            const auto s_block =
                workloads::simulate_wavefront(s.app, sim, s.grid, 1);
            const auto s_nonblock =
                workloads::simulate_wavefront(nonblocking, sim, s.grid, 1);
            return runner::Metrics{
                {"model_gain_pct", 100.0 * (1.0 - m_nonblock / m_block)},
                {"sim_gain_pct",
                 100.0 * (1.0 - s_nonblock.time_us / s_block.time_us)}};
          });

  runner::emit(cli, records,
               {runner::Column::label("machine"), runner::Column::label("P"),
                runner::Column::metric("model_gain%", "model_gain_pct", 2),
                runner::Column::metric("sim_gain%", "sim_gain_pct", 2)});
  return 0;
}
