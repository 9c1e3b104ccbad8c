// Fig 12: the §5.5 sweep-structure redesign — pipelining the energy groups
// through the sweeps eliminates nearly all pipeline-fill overhead.
// Fixed per-processor problem of 4 x 4 x 1000 cells, 30 energy groups,
// 10^4 time steps.
#include <cmath>

#include "common/units.h"
#include "core/benchmarks.h"
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
      "Fig 12", "pipeline-fill redesign (Sweep3D, 4x4x1000 cells/processor)",
      "fill time is a growing share of the sequential-groups total as P "
      "rises; pipelining the 30 energy groups (240 sweeps per iteration, "
      "ndiag = nfull = 2) eliminates nearly all of it");

  const double steps = 1.0e4;
  const double to_days = steps / common::kUsecPerSec / common::kSecPerDay;

  // Weak scaling: every processor owns 4 x 4 x 1000 cells, so the
  // application itself is a function of the P axis.
  auto weak_cfg = [](int p) {
    const int side = static_cast<int>(std::lround(std::sqrt(p)));
    core::benchmarks::Sweep3dConfig cfg;
    cfg.nx = 4.0 * side;
    cfg.ny = 4.0 * side;
    cfg.nz = 1000.0;
    return cfg;
  };

  runner::SweepGrid grid;
  grid.base().machine = core::MachineConfig::xt4_dual_core();
  runner::apply_machine_cli(cli, ctx, grid);
  grid.processors({1024, 4096, 16384, 65536});
  grid.axis("design",
            {{"sequential_groups",
              [&](runner::Scenario& s) {
                // Sequential energy groups: 30 full iterations each step.
                s.app = core::benchmarks::sweep3d(
                    weak_cfg(static_cast<int>(s.param("P"))));
                s.app.energy_groups = 30;
              }},
             {"pipelined_groups",
              [&](runner::Scenario& s) {
                // Pipelined groups: one iteration performs all 240 sweeps
                // but fills the pipeline only as often as the original
                // 8-sweep structure.
                s.app = core::benchmarks::sweep3d(
                    weak_cfg(static_cast<int>(s.param("P"))));
                s.app.sweeps =
                    core::SweepStructure::sweep3d_pipelined_groups(30);
                s.app.energy_groups = 1;
              }}});

  auto records = runner::BatchRunner(ctx, runner::options_from_cli(cli)).run(grid);

  // The fill share refers to the sequential design: fill per iteration
  // times 120 iterations and 30 groups per time step.
  for (auto& r : records)
    if (r.label("design") == "sequential_groups") {
      const double fill_days =
          to_days * r.metric("model_fill_us") * 120.0 * 30.0;
      r.set("seq_fill_days", fill_days);
      r.set("fill_share_pct", 100.0 * fill_days /
                                  (to_days * r.metric("model_timestep_us")));
    }

  common::Table table({"P", "seq_groups_days", "pipelined_days",
                       "seq_fill_days", "fill_share%"});
  for (const auto& r : records) {
    if (r.label("design") != "sequential_groups") continue;
    const runner::RunRecord* pipe = nullptr;
    for (const auto& q : records)
      if (q.label("design") == "pipelined_groups" &&
          q.label("P") == r.label("P"))
        pipe = &q;
    table.add_row({r.label("P"),
                   common::Table::num(to_days * r.metric("model_timestep_us"),
                                      1),
                   common::Table::num(
                       to_days * pipe->metric("model_timestep_us"), 1),
                   common::Table::num(r.metric("seq_fill_days"), 1),
                   common::Table::num(r.metric("fill_share_pct"), 1)});
  }
  runner::emit(cli, records, table);
  return 0;
}
