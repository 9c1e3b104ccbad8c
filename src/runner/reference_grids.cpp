#include "runner/reference_grids.h"

#include "core/benchmarks.h"
#include "wave/context.h"
#include "workloads/registry.h"

namespace wave::runner {

SweepGrid runner_scaling_grid(bool full) {
  core::benchmarks::Sweep3dConfig s3;
  s3.nx = s3.ny = s3.nz = 96;
  core::benchmarks::ChimaeraConfig chim;
  chim.nx = chim.ny = chim.nz = 96;

  std::vector<int> procs = {16, 36, 64, 100};
  if (full) procs.insert(procs.end(), {144, 196, 256, 324});

  SweepGrid grid;
  grid.apps({{"Sweep3D 96^3", core::benchmarks::sweep3d(s3)},
             {"Chimaera 96^3", core::benchmarks::chimaera(chim)}});
  grid.machines({{"XT4 single", core::MachineConfig::xt4_single_core()},
                 {"XT4 dual", core::MachineConfig::xt4_dual_core()}});
  grid.processors(procs);
  grid.values("Htile", {1, 2},
              [](Scenario& s, double h) { s.app.htile = h; });
  grid.engines({Engine::Model, Engine::Simulation});
  return grid;
}

SweepGrid workload_matrix_grid(const wave::Context& ctx, bool full) {
  SweepGrid grid;
  grid.base().app = workloads::WorkloadInputs::default_app();

  std::vector<int> procs = {16, 64};
  if (full) procs.push_back(256);

  grid.workloads(ctx, ctx.workload_registry().names());
  grid.machines({{"xt4-single", core::MachineConfig::xt4_single_core()},
                 {"xt4-dual", core::MachineConfig::xt4_dual_core()}});
  grid.comm_models(ctx, {"loggp", "loggps", "contention"});
  grid.processors(procs);
  grid.engines({Engine::Model, Engine::Simulation});
  return grid;
}

SweepGrid model_compare_grid(const wave::Context& ctx,
                             const std::string& machines_dir) {
  core::benchmarks::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 256;

  SweepGrid grid;
  grid.base().app = core::benchmarks::sweep3d(cfg);
  if (machines_dir.empty()) {
    grid.machines(
        {{"xt4-dual", core::MachineConfig::xt4_dual_core()},
         {"sp2", core::MachineConfig::sp2_single_core()},
         {"quadcore-shared-bus", core::MachineConfig::xt4_with_cores(4)}});
  } else {
    grid.machine_files(ctx, {machines_dir + "/xt4-dual.cfg",
                             machines_dir + "/sp2.cfg",
                             machines_dir + "/quadcore-shared-bus.cfg",
                             machines_dir + "/fatnode-loggps.cfg"});
  }
  grid.comm_models(ctx, {"loggp", "loggps", "contention"});
  grid.processors({256, 1024, 4096});
  return grid;
}

}  // namespace wave::runner
