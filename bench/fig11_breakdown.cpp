// Fig 11: the critical-path cost breakdown for Chimaera 240^3 — total,
// computation, and communication time versus processor count.
#include <iostream>

#include "common/units.h"
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
      "Fig 11", "cost breakdown (Chimaera 240^3, 10^4 time steps)",
      "computation time falls with P while communication time falls far "
      "more slowly; the crossover where communication dominates marks the "
      "point of greatly diminished returns from adding processors");

  const double steps = 1.0e4;
  const double to_days = steps / common::kUsecPerSec / common::kSecPerDay;

  runner::SweepGrid grid;
  grid.base().app = core::benchmarks::chimaera();
  grid.base().machine = core::MachineConfig::xt4_dual_core();
  runner::apply_machine_cli(cli, ctx, grid);
  std::vector<int> procs;
  for (int p = 1024; p <= 32768; p *= 2) procs.push_back(p);
  grid.processors(procs);

  auto records = runner::BatchRunner(ctx, runner::options_from_cli(cli)).run(grid);

  std::string crossover = "";
  for (auto& r : records) {
    const double total = to_days * r.metric("model_timestep_us");
    const double comm = to_days * r.metric("model_timestep_comm_us");
    r.set("total_days", total);
    r.set("comm_days", comm);
    r.set("comp_days", total - comm);
    r.set("comm_share_pct", 100.0 * comm / total);
    if (crossover.empty() && comm > total - comm) crossover = r.label("P");
  }

  runner::emit(cli, records,
               {runner::Column::label("P"),
                runner::Column::metric("total_days", "total_days", 2),
                runner::Column::metric("computation_days", "comp_days", 2),
                runner::Column::metric("communication_days", "comm_days", 2),
                runner::Column::metric("comm_share%", "comm_share_pct", 1)});
  if (!crossover.empty())
    std::cout << "communication first dominates at P = " << crossover << "\n";
  return 0;
}
