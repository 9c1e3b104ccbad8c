// The six shipped workloads, as pre-registered in every WorkloadRegistry
// (registry.h). The first two wrap the repository's original
// evaluation pair — the wavefront application family (wavefront.h +
// core/solver.h) and the calibration ping-pong (pingpong.h) — onto the
// Workload interface; the other four live in their own headers and
// exercise different corners of the communication models
// (docs/WORKLOADS.md maps each workload to the terms it stresses).
#pragma once

#include <memory>
#include <vector>

#include "sim/mpi.h"
#include "workloads/wavefront.h"
#include "workloads/workload.h"

namespace wave::workloads {

/// @brief The paper's pipelined wavefront family (LU/Sweep3D/Chimaera):
///   Solver::evaluate as the analytic path, simulate_wavefront as the DES
///   path. Registered as "wavefront".
class WavefrontWorkload : public Workload {
 public:
  const std::string& name() const override;
  const std::string& description() const override;
  /// The paper reports <= ~10% across its validation set; multi-core
  /// packing plus a visible LogGPS sync cost lands just above that (the
  /// abstracted pipeline stalls compound with the per-rendezvous term),
  /// so the honest contract bound is 12%.
  double tolerance() const override { return 0.12; }
  ModelOutput predict(const core::MachineConfig& machine,
                      const loggp::CommModel& comm,
                      const WorkloadInputs& in) const override;
  using Workload::simulate;
  SimOutput simulate(const SimMachine& machine,
                     const WorkloadInputs& in) const override;
};

/// @brief The §3.1 calibration micro-benchmark: two ranks exchanging one
///   message back and forth. The model path is CommModel::total — the
///   Table-1 closed form itself — so model and fabric must agree exactly
///   (the repository's calibration tests pin this at 1e-9). Registered as
///   "pingpong".
class PingpongWorkload : public Workload {
 public:
  const std::string& name() const override;
  const std::string& description() const override;
  std::vector<ParamSpec> parameters() const override;
  double tolerance() const override { return 1e-6; }
  ModelOutput predict(const core::MachineConfig& machine,
                      const loggp::CommModel& comm,
                      const WorkloadInputs& in) const override;
  using Workload::simulate;
  SimOutput simulate(const SimMachine& machine,
                     const WorkloadInputs& in) const override;
};

/// @brief All built-in workloads in registration order (wavefront,
///   pingpong, halo2d, pipeline1d, sweep3d-hybrid, allreduce-storm).
std::vector<std::shared_ptr<const Workload>> builtin_workloads();

/// @brief Shared epilogue of every DES path: drains `world`, divides the
///   makespan by `iterations`, and copies the fabric counters.
SimOutput collect_run(sim::World& world, int iterations);

/// @brief Node of every rank of `grid`, row-major, with each node's cores
///   on one machine.cx × machine.cy rectangle of the grid (topo::NodeMap).
std::vector<int> place_ranks(const topo::Grid& grid, const SimMachine& machine);

/// @brief The halo swap of a 2-D stencil phase (halo2d's, and LU's between
///   iterations): one concurrent exchange with each of `c`'s existing W,
///   E, N and S neighbours, in that order, ready to co_await. The model
///   prices it with core::halo_time.
sim::Mpi::HaloExchangeAwaitable face_halo(sim::RankCtx ctx,
                                          const topo::Grid& grid,
                                          topo::Coord c, int bytes_ew,
                                          int bytes_ns);

}  // namespace wave::workloads
