// Simulated wavefront applications (the paper's LU / Sweep3D / Chimaera
// stand-ins, §2.1-2.2 and Fig 4).
//
// Each MPI rank runs the per-tile loop of Fig 4 for every sweep of the
// iteration:
//   [pre-compute Wpre]               (LU only)
//   receive from upstream-x; receive from upstream-y
//   compute W
//   send to downstream-x; send to downstream-y
// with "upstream/downstream" oriented by the sweep's origin corner.
//
// Crucially, the sweep *precedence* behaviour the model abstracts with
// nfull/ndiag is NOT programmed here — it emerges from the blocking data
// dependencies, exactly as in the real codes: sweep k+1 starts on a rank
// only when that rank has finished sweep k and (if it is not the origin)
// received sweep-k+1 boundaries. Validating the analytic model against this
// simulation therefore genuinely tests the nfull/ndiag abstraction.
#pragma once

#include "core/app_params.h"
#include "topology/grid.h"
#include "workloads/workload.h"

namespace wave::workloads {

using common::usec;

/// Concrete per-rank quantities for a wavefront run on a given grid,
/// derived from the Table 3 application parameters.
struct WavefrontSpec {
  topo::Grid grid{1, 1};
  int tiles_per_stack = 1;  ///< message steps per sweep: round(Nz / Htile)
  usec w_tile = 0.0;        ///< compute per tile after the receives
  usec w_pre = 0.0;         ///< compute per tile before the receives
  int msg_bytes_ew = 0;
  int msg_bytes_ns = 0;
  std::vector<core::SweepOrigin> sweep_origins;  ///< in execution order
  int allreduce_count = 0;
  int allreduce_bytes = 8;
  bool has_stencil = false;
  usec stencil_compute = 0.0;  ///< per-rank stencil work per iteration
  int iterations = 1;
  /// Use MPI_Isend for the downstream sends, waiting at the next tile
  /// (the AppParams::nonblocking_sends design variant).
  bool nonblocking_sends = false;
};

/// Derives the per-rank spec from Table 3 parameters and a decomposition.
WavefrontSpec make_spec(const core::AppParams& app, const topo::Grid& grid,
                        int iterations = 1);

/// Builds the world for `machine` (sim_machine's output, workload.h),
/// runs one Fig-4 rank program per grid position for `iterations`
/// iterations, and returns timing plus contention counters through
/// collect_run. The result is a function of (app, grid, iterations,
/// machine) alone: `observers` are inert instrumentation hooks
/// (sim/observers.h).
SimOutput simulate_wavefront(const core::AppParams& app,
                             const SimMachine& machine,
                             const topo::Grid& grid, int iterations,
                             const sim::Observers& observers = {});

}  // namespace wave::workloads
