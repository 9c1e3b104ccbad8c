// Ablation: the plug-and-play model vs the previous-generation
// single-sweep baseline (Hoisie et al. [1], naively reused across sweeps).
//
// The paper's motivation (§1, §2.3): earlier models are accurate for one
// sweep but need bespoke restructuring per code. Quantified here: the
// naive reuse charges every sweep a full pipeline fill, so it is close for
// barrier-heavy LU but substantially over-predicts the pipelined Sweep3D
// structure — while the plug-and-play model tracks the simulator for both
// with the same equations and only different nfull/ndiag inputs.
#include "core/baseline.h"
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
      "Ablation: baseline model",
      "plug-and-play vs naive single-sweep-model reuse, vs simulation",
      "in production configurations the plug-and-play model beats the "
      "baseline's blanket fill charge while using the same equations for "
      "every code; in the shallow-stack, fill-dominated regime BOTH "
      "models degrade — the plug-and-play one to the ~25%-order error the "
      "paper itself reports for such 'configurations of less practical "
      "interest' (§4.3), where consecutive sweeps collide in ways neither "
      "abstraction captures");

  core::benchmarks::Sweep3dConfig s3;
  s3.nx = s3.ny = s3.nz = 256;
  // A shallow-stack configuration where pipeline fill dominates: the
  // regime that exposes the baseline's per-sweep fill over-charge most.
  core::benchmarks::Sweep3dConfig shallow = s3;
  shallow.nz = 32;
  shallow.mk = 2;  // Htile = 1: 32 tiles against a 63-step pipeline

  runner::SweepGrid grid;
  grid.base().machine = core::MachineConfig::xt4_dual_core();
  runner::apply_machine_cli(cli, ctx, grid);
  grid.apps({{"LU 162^3 (nfull=2)", core::benchmarks::lu()},
             {"Sweep3D 256^3 (nfull=2, ndiag=2)",
              core::benchmarks::sweep3d(s3)},
             {"Sweep3D 256x256x32 shallow",
              core::benchmarks::sweep3d(shallow)},
             {"Chimaera 240^3 (nfull=4, ndiag=2)",
              core::benchmarks::chimaera()}});
  grid.processors({64, 256, 1024});

  const auto records =
      runner::BatchRunner(ctx, runner::options_from_cli(cli))
          .run(grid, [&ctx](const runner::Scenario& s) {
            runner::Metrics m = runner::model_vs_sim_metrics(ctx, s);
            const auto base = core::hoisie_baseline(
                s.app, s.effective_machine(), ctx.comm_model_registry(),
                s.grid);
            double sim_iter = 0.0;
            for (const auto& [key, value] : m)
              if (key == "sim_iter_us") sim_iter = value;
            m.emplace_back("baseline_iter_us", base.iteration);
            m.emplace_back("baseline_err_pct",
                           100.0 * common::relative_error(base.iteration,
                                                          sim_iter));
            return m;
          });

  runner::emit(
      cli, records,
      {runner::Column::label("application"), runner::Column::label("P"),
       runner::Column::metric("sim_ms", "sim_iter_us", 3, 1.0e-3),
       runner::Column::metric("plugplay_ms", "model_iter_us", 3, 1.0e-3),
       runner::Column::metric("plugplay_err%", "err_pct", 2),
       runner::Column::metric("baseline_ms", "baseline_iter_us", 3, 1.0e-3),
       runner::Column::metric("baseline_err%", "baseline_err_pct", 2)});
  return 0;
}
