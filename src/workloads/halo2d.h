// Jacobi-style 2-D halo exchange — the no-pipelining counterpoint.
//
// Every rank computes its whole local block, then swaps boundary faces
// with its four grid neighbours in one bulk-synchronous step (the
// concurrent halo primitive, sim/mpi.h HaloExchangeAwaitable). There are
// no precedence chains: an iteration's critical path is simply
//   compute + one E/W exchange + one N/S exchange,
// which is exactly the repository's LU stencil-phase model
// (core::halo_time), now promoted to a standalone workload. It exercises
// the per-pair Send + TotalComm terms of a comm backend with *none* of
// the fill/stack machinery — the opposite corner of the model space from
// the wavefront family.
#pragma once

#include "workloads/workload.h"

namespace wave::workloads {

/// @brief Registered as "halo2d". Reads from the AppParams: the data grid
///   (nx, ny, nz), per-cell work wg, and boundary_bytes_per_cell (face
///   payloads derive exactly as the wavefront message sizes do).
class Halo2dWorkload : public Workload {
 public:
  const std::string& name() const override;
  const std::string& description() const override;
  std::vector<ParamSpec> parameters() const override;
  double tolerance() const override { return 0.10; }
  ModelOutput predict(const core::MachineConfig& machine,
                      const loggp::CommModel& comm,
                      const WorkloadInputs& in) const override;
  using Workload::simulate;
  SimOutput simulate(const SimMachine& machine,
                     const WorkloadInputs& in) const override;
};

}  // namespace wave::workloads
