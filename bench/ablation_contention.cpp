// Ablation: the Table 6 fixed-interference contention model vs the
// contention that *emerges* in the simulator from queued shared-bus DMA.
//
// The model adds I = odma + S*Gdma per interfering transfer to the r4
// operations; the simulator knows nothing of I — its per-node TX/RX DMA
// queues produce whatever delays the schedule produces. Comparing the
// multi-core slowdown each predicts tests the abstraction directly.
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
      "Ablation: contention model (Table 6) vs emergent contention",
      "multi-core slowdown factor, model vs simulator",
      "both agree single-core nodes see no sharing penalty and that "
      "packing more cores per node slows the per-iteration time, within a "
      "few percent of each other; the residual cuts both ways — the fixed "
      "I-per-op over-charges lightly loaded schedules (pipeline-offset "
      "neighbours rarely collide) and under-charges heavily loaded ones "
      "(queueing compounds)");

  core::benchmarks::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 256;

  // Only the node shape varies per level; interconnect parameters (and
  // any --machine / --comm-model override) stay those of the base machine.
  auto shape = [](int cx, int cy) {
    return [cx, cy](runner::Scenario& s) {
      s.machine.cx = cx;
      s.machine.cy = cy;
      s.machine.buses_per_node = 1;
    };
  };

  runner::SweepGrid grid;
  grid.base().app = core::benchmarks::sweep3d(cfg);
  runner::apply_machine_cli(cli, ctx, grid);
  grid.processors({256, 1024});
  grid.axis("node_shape", {{"1x1", shape(1, 1)},
                           {"1x2", shape(1, 2)},
                           {"2x2", shape(2, 2)},
                           {"2x4", shape(2, 4)}});

  auto records = runner::BatchRunner(ctx, runner::options_from_cli(cli))
                     .run(grid, [&ctx](const runner::Scenario& s) {
                       return runner::model_vs_sim_metrics(ctx, s);
                     });

  // Slowdown factors are relative to the single-core (1x1) record at the
  // same processor count.
  for (auto& r : records) {
    const runner::RunRecord* ref = nullptr;
    for (const auto& q : records)
      if (q.label("P") == r.label("P") && q.label("node_shape") == "1x1")
        ref = &q;
    r.set("model_slowdown",
          r.metric("model_iter_us") / ref->metric("model_iter_us"));
    r.set("sim_slowdown", r.metric("sim_iter_us") / ref->metric("sim_iter_us"));
  }

  runner::emit(
      cli, records,
      {runner::Column::label("node_shape"), runner::Column::label("P"),
       runner::Column::metric("model_slowdown", "model_slowdown", 4),
       runner::Column::metric("sim_slowdown", "sim_slowdown", 4),
       runner::Column::metric("sim_bus_wait_ms", "sim_bus_wait_us", 2,
                              1.0e-3)});
  return 0;
}
