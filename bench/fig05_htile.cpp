// Fig 5: execution time per time step vs Htile for Chimaera (240^3) and
// Sweep3D (20M cells) on 4K and 16K processors.
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
      "Fig 5", "execution time per time step vs Htile",
      "Htile in the range 2-5 minimizes execution time for both transport "
      "benchmarks (vs 5-10 on the higher-latency SP/2); Htile = 1 pays "
      "per-message overheads too often, very tall tiles pay pipeline fill");

  // The Htile axis varies slowest; each config level builds its application
  // *from* the point's Htile value and picks the processor count.
  auto chimaera_at = [](runner::Scenario& s, int p) {
    core::benchmarks::ChimaeraConfig cfg;
    cfg.htile = s.param("Htile");
    s.app = core::benchmarks::chimaera(cfg);
    s.set_processors(p);
  };
  auto sweep3d_at = [](runner::Scenario& s, int p) {
    // Sweep3D reaches Htile = h with mk = 2h (mmi/mmo = 1/2).
    s.app = core::benchmarks::sweep3d_20m(
        0.55, 2 * static_cast<int>(s.param("Htile")));
    s.set_processors(p);
  };

  runner::SweepGrid grid;
  grid.base().machine = core::MachineConfig::xt4_dual_core();
  runner::apply_machine_cli(cli, ctx, grid);
  grid.values("Htile", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  grid.axis("config",
            {{"Chimaera_240^3_P4K",
              [&](runner::Scenario& s) { chimaera_at(s, 4096); }},
             {"Chimaera_240^3_P16K",
              [&](runner::Scenario& s) { chimaera_at(s, 16384); }},
             {"Sweep3D_20M_P4K",
              [&](runner::Scenario& s) { sweep3d_at(s, 4096); }},
             {"Sweep3D_20M_P16K",
              [&](runner::Scenario& s) { sweep3d_at(s, 16384); }}});

  const auto records =
      runner::BatchRunner(ctx, runner::options_from_cli(cli)).run(grid);

  runner::emit(cli, records,
               runner::pivot_table(records, "Htile", "config",
                                   "model_timestep_us", 2,
                                   1.0 / common::kUsecPerSec));

  // Chimaera's P = 16K minimizer, the paper's headline band.
  std::string best_h = "-";
  double best_t = 1e300;
  for (const auto& r : records)
    if (r.label("config") == "Chimaera_240^3_P16K" &&
        r.metric("model_timestep_us") < best_t) {
      best_t = r.metric("model_timestep_us");
      best_h = r.label("Htile");
    }
  std::cout << "Chimaera P=16K minimizer: Htile = " << best_h
            << " (paper band: 2-5)\n";
  return 0;
}
