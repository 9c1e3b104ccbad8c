// Fig 10: execution time versus number of nodes for 1 to 16 cores per
// node (Sweep3D 10^9 cells, 10^4 time steps), plus the §5.3 design
// variant: a 16-core node provisioned with one bus per four cores.
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
      "Fig 10", "execution time on multi-core nodes (Sweep3D 10^9)",
      "diminishing returns with more cores per node; two cores on N nodes "
      "slightly beat four cores on N/2 nodes (shared bus); 16 cores on one "
      "bus degrade, but 16 cores with one bus per 4 cores match the 2x-node "
      "quad-core system");

  core::benchmarks::Sweep3dConfig cfg;
  cfg.energy_groups = 30;
  const double steps = 1.0e4;

  // Node-count axis first; each node-shape level derives the machine and
  // the total rank count from the point's node count.
  // The axis sets only the node shape; everything else about the machine
  // (interconnect parameters, comm model, synchronization terms — and any
  // --machine / --comm-model override) comes from the base machine.
  auto shape = [](int cores, int buses) {
    return [cores, buses](runner::Scenario& s) {
      const core::MachineConfig shaped =
          core::MachineConfig::xt4_with_cores(cores, buses);
      s.machine.cx = shaped.cx;
      s.machine.cy = shaped.cy;
      s.machine.buses_per_node = shaped.buses_per_node;
      s.set_processors(static_cast<int>(s.param("nodes")) * cores);
    };
  };

  runner::SweepGrid grid;
  grid.base().app = core::benchmarks::sweep3d(cfg);
  runner::apply_machine_cli(cli, ctx, grid);
  std::vector<double> nodes;
  for (int n = 8192; n <= 131072; n *= 2) nodes.push_back(n);
  grid.values("nodes", nodes);
  grid.axis("node_shape", {{"1core_days", shape(1, 1)},
                           {"2core_days", shape(2, 1)},
                           {"4core_days", shape(4, 1)},
                           {"8core_days", shape(8, 1)},
                           {"16core_days", shape(16, 1)},
                           {"16core_4bus_days", shape(16, 4)}});

  const auto records =
      runner::BatchRunner(ctx, runner::options_from_cli(cli)).run(grid);

  runner::emit(cli, records,
               runner::pivot_table(records, "nodes", "node_shape",
                                   "model_timestep_us", 1,
                                   steps / common::kUsecPerSec /
                                       common::kSecPerDay));
  return 0;
}
